package kv

import (
	"fmt"
	"sort"

	"met/internal/obs"
)

// BlockSource is the storage behind a StoreFile: an ordered sequence of
// immutable encoded blocks plus an optional membership filter. The
// engine layers the block cache, the sparse key index and the iterators
// on top, so a source only has to produce blocks — kept in memory as
// packed (memorySource) or read from an on-disk SSTable and parsed in
// place (met/internal/durable).
type BlockSource interface {
	// NumBlocks returns the number of data blocks.
	NumBlocks() int
	// FirstKey returns the first key of block i (the sparse index).
	FirstKey(i int) string
	// LoadBlock returns block i. The engine caches the result, so a
	// source may read and parse it from disk on every call.
	LoadBlock(i int) (*Block, error)
	// MayContain is a fast membership filter: false means the key is
	// definitely absent and no block needs to be read (bloom filter);
	// true means "maybe". Sources without a filter return true.
	MayContain(key string) bool
}

// FileMeta carries the summary statistics a StoreFile serves without
// touching its blocks.
type FileMeta struct {
	Entries int
	Bytes   int
	MinKey  string
	MaxKey  string
	MaxTS   uint64
}

// StoreFile is an immutable sorted file produced by a memstore flush or a
// compaction, corresponding to an HBase HFile. It wraps a BlockSource
// with the sparse first-key index, the block cache and the negative-
// lookup filter, so in-memory and on-disk files serve reads through the
// same code path.
type StoreFile struct {
	id        uint64
	src       BlockSource
	firstKeys []string // firstKeys[i] is the first key of block i
	meta      FileMeta
}

// NewStoreFile wraps a block source and its metadata as a store file.
// The sparse index is copied out of the source once, up front.
func NewStoreFile(id uint64, meta FileMeta, src BlockSource) *StoreFile {
	f := &StoreFile{id: id, src: src, meta: meta}
	f.firstKeys = make([]string, src.NumBlocks())
	for i := range f.firstKeys {
		f.firstKeys[i] = src.FirstKey(i)
	}
	return f
}

// memorySource is the heap-resident BlockSource used by the memory
// backend: packed blocks live in RAM and every key "may" be present.
type memorySource struct {
	blocks []*Block
}

func (m *memorySource) NumBlocks() int                  { return len(m.blocks) }
func (m *memorySource) FirstKey(i int) string           { return string(m.blocks[i].key(0)) }
func (m *memorySource) LoadBlock(i int) (*Block, error) { return m.blocks[i], nil }
func (m *memorySource) MayContain(key string) bool      { return true }

// StreamBlocks drains a sorted iterator (key asc, timestamp desc) into
// encoded blocks of about blockSize bytes, handing each finished block to
// emit in order, and returns the file metadata (Bytes is Σ Entry.Size;
// MaxTS is at least maxTSFloor). newKey, when non-nil, sees every
// distinct key once, in order. A block only ends at a key change, so all
// versions of one key share a block (which may then exceed blockSize):
// the sparse index maps a key to the one block that can hold it, and a
// key's newer versions left at the end of the previous block would be
// unreachable. Every file build — both backends, flushes and compactions
// — streams through here, so the formats pack identically and no build
// holds its whole output in memory.
//
// An error from emit or from the iterator (see Err on the engine's
// iterators) is returned and the build must be abandoned. StreamBlocks
// panics when entries are unsorted: files are only ever built from
// sorted iterators, so unsorted input means engine corruption.
func StreamBlocks(it Iterator, blockSize int, maxTSFloor uint64, emit func(*Block) error, newKey func(key string)) (FileMeta, error) {
	if blockSize <= 0 {
		blockSize = 64 * 1024
	}
	meta := FileMeta{MaxTS: maxTSFloor}
	var cur blockBuilder
	var prev Entry
	for it.Next() {
		e := it.Entry()
		keyChange := meta.Entries == 0 || e.Key != prev.Key
		if meta.Entries > 0 {
			if less(e, prev) {
				panic(fmt.Sprintf("kv: unsorted entries packing blocks (%q after %q)", e.Key, prev.Key))
			}
			if keyChange && cur.bytes+e.Size() > blockSize {
				if err := emit(cur.finish()); err != nil {
					return meta, err
				}
			}
		} else {
			meta.MinKey = e.Key
		}
		if keyChange && newKey != nil {
			newKey(e.Key)
		}
		cur.add(e, blockSize)
		meta.Bytes += e.Size()
		meta.Entries++
		if e.Timestamp > meta.MaxTS {
			meta.MaxTS = e.Timestamp
		}
		prev = e
	}
	if err := iterErr(it); err != nil {
		return meta, err
	}
	if meta.Entries > 0 {
		meta.MaxKey = prev.Key
		if err := emit(cur.finish()); err != nil {
			return meta, err
		}
	}
	return meta, nil
}

// BuildStoreFile streams a sorted iterator into an in-memory store file
// (the memory backend's Create): the file's recorded max timestamp is at
// least maxTSFloor, and an iterator error abandons the build.
func BuildStoreFile(id uint64, it Iterator, blockSize int, maxTSFloor uint64) (*StoreFile, error) {
	src := &memorySource{}
	meta, err := StreamBlocks(it, blockSize, maxTSFloor, func(b *Block) error {
		src.blocks = append(src.blocks, b)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return NewStoreFile(id, meta, src), nil
}

// ID returns the file's unique identifier.
func (f *StoreFile) ID() uint64 { return f.id }

// Bytes returns the file's total data size (for durable files, the real
// on-disk size).
func (f *StoreFile) Bytes() int { return f.meta.Bytes }

// Entries returns the number of entry versions stored.
func (f *StoreFile) Entries() int { return f.meta.Entries }

// NumBlocks returns the number of blocks.
func (f *StoreFile) NumBlocks() int { return len(f.firstKeys) }

// KeyRange returns the smallest and largest keys in the file.
func (f *StoreFile) KeyRange() (minKey, maxKey string) { return f.meta.MinKey, f.meta.MaxKey }

// MaxTimestamp returns the newest timestamp in the file.
func (f *StoreFile) MaxTimestamp() uint64 { return f.meta.MaxTS }

// blockFor returns the index of the block that could contain key, or -1
// when the key is out of range.
func (f *StoreFile) blockFor(key string) int {
	if f.meta.Entries == 0 || key > f.meta.MaxKey {
		return -1
	}
	// The first block whose first key is > key is one past the target.
	i := sort.SearchStrings(f.firstKeys, key)
	if i < len(f.firstKeys) && f.firstKeys[i] == key {
		return i
	}
	if i == 0 {
		if key < f.meta.MinKey {
			return -1
		}
		return 0
	}
	return i - 1
}

// get looks up the newest version of key, loading the candidate block
// through the cache. found=false with a nil error means the key is not in
// this file; the filter check comes first, so a negative lookup on a
// bloom-filtered file reads no data block at all. A non-nil trace
// records a span per consulted stage (bloom negative, cache hit, or
// SSTable read).
func (f *StoreFile) get(key string, cache *BlockCache, stats *storeStats, tr *obs.Trace) (Entry, bool, error) {
	bi := f.blockFor(key)
	if bi < 0 {
		return Entry{}, false, nil
	}
	st := tr.StartSpan()
	if !f.src.MayContain(key) {
		if stats != nil {
			stats.filterNegatives.Add(1)
		}
		tr.EndSpan("bloom-negative", st)
		return Entry{}, false, nil
	}
	b, err := f.loadBlock(bi, cache, stats, tr)
	if err != nil {
		return Entry{}, false, err
	}
	if i := b.seek(key); i < b.Len() && string(b.key(i)) == key {
		return b.Entry(i), true, nil
	}
	return Entry{}, false, nil
}

// loadBlock fetches block bi through the cache, recording hit/miss
// stats and — when traced — a "block-cache" span for a hit or an
// "sstable-read" span for a source load.
func (f *StoreFile) loadBlock(bi int, cache *BlockCache, stats *storeStats, tr *obs.Trace) (*Block, error) {
	st := tr.StartSpan()
	if cache == nil {
		if stats != nil {
			stats.cacheMisses.Add(1)
			stats.blocksRead.Add(1)
		}
		b, err := f.src.LoadBlock(bi)
		tr.EndSpan("sstable-read", st)
		return b, err
	}
	key := blockKey{file: f.id, block: bi}
	if b, ok := cache.get(key); ok {
		if stats != nil {
			stats.cacheHits.Add(1)
		}
		tr.EndSpan("block-cache", st)
		return b, nil
	}
	b, err := f.src.LoadBlock(bi)
	if err != nil {
		return nil, err
	}
	cache.put(key, b)
	if stats != nil {
		stats.cacheMisses.Add(1)
		stats.blocksRead.Add(1)
	}
	tr.EndSpan("sstable-read", st)
	return b, nil
}

// iterator walks the whole file in order, loading blocks through cache.
func (f *StoreFile) iterator(cache *BlockCache, stats *storeStats) Iterator {
	return &fileIter{f: f, cache: cache, stats: stats, block: -1}
}

// iteratorFrom positions at the first entry with key >= start.
func (f *StoreFile) iteratorFrom(start string, cache *BlockCache, stats *storeStats) Iterator {
	it := &fileIter{f: f, cache: cache, stats: stats, block: -1}
	if f.meta.Entries == 0 || start > f.meta.MaxKey {
		it.block = len(f.firstKeys) // exhausted
		return it
	}
	bi := f.blockFor(start)
	if bi < 0 {
		bi = 0
	}
	it.block = bi
	cur, err := f.loadBlock(bi, cache, stats, nil)
	if err != nil {
		it.err = err
		it.block = len(f.firstKeys)
		return it
	}
	it.cur = cur
	it.idx = cur.seek(start) - 1
	return it
}

// fileIter iterates a store file. A block-load failure (possible only for
// disk-backed sources) stops the iteration; Err reports it afterwards.
type fileIter struct {
	f     *StoreFile
	cache *BlockCache
	stats *storeStats
	block int
	cur   *Block
	idx   int
	err   error
}

func (it *fileIter) Next() bool {
	if it.err != nil {
		return false
	}
	for {
		if it.block >= len(it.f.firstKeys) {
			return false
		}
		if it.cur == nil || it.idx+1 >= it.cur.Len() {
			it.block++
			if it.block >= len(it.f.firstKeys) {
				return false
			}
			cur, err := it.f.loadBlock(it.block, it.cache, it.stats, nil)
			if err != nil {
				it.err = err
				it.block = len(it.f.firstKeys)
				return false
			}
			it.cur = cur
			it.idx = -1
			if it.cur.Len() == 0 {
				continue
			}
		}
		it.idx++
		return true
	}
}

// Entry materializes the current entry; its value aliases the block and
// is read-only.
func (it *fileIter) Entry() Entry { return it.cur.Entry(it.idx) }

// Err reports a block-load failure encountered during iteration.
func (it *fileIter) Err() error { return it.err }

// iterErr extracts the error from any iterator that tracks one.
func iterErr(it Iterator) error {
	if e, ok := it.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}
