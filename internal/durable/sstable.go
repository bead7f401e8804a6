package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync/atomic"

	"met/internal/kv"
)

const (
	sstMagic       = "METS"
	sstVersion     = 1
	sstHeaderSize  = 5
	sstFooterMagic = "METSFOOT"
	// footer: 6 × u32 section coordinates + 16 reserved + 8 magic.
	sstFooterSize = 6*4 + 16 + 8
)

// blockSpan locates one data block inside the file.
type blockSpan struct {
	firstKey string
	off      uint64
	length   uint64
}

// writeSSTable streams a sorted iterator into one SSTable at path,
// atomically (write to temp, fsync, rename). Blocks are packed by
// kv.StreamBlocks — the same rule as the in-memory backend — and written
// through a buffered writer as each one fills; only the block index, the
// per-key bloom hashes and the properties accumulate in memory. An
// iterator or write error removes the temp file before anything is
// renamed into place. It returns the file's metadata with Bytes set to
// the real on-disk size. written, when non-nil, accumulates the physical
// bytes (backend I/O accounting). maxTSFloor raises the recorded
// max-timestamp property (see kv.StorageBackend.Create).
func writeSSTable(path string, it kv.Iterator, blockBytes int, opts Options, written *atomic.Int64, maxTSFloor uint64) (kv.FileMeta, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return kv.FileMeta{}, err
	}
	sw := &sstWriter{w: bufio.NewWriterSize(meteredWriter{w: f, count: written}, sstWriteBuffer)}
	meta, err := sw.write(it, blockBytes, maxTSFloor, opts.BitsPerKey)
	if err == nil {
		err = sw.w.Flush()
	}
	if err == nil {
		err = syncFile(f, opts.NoSync)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return kv.FileMeta{}, err
	}
	return meta, nil
}

// sstWriteBuffer is the buffered writer size SSTable builds stream
// through.
const sstWriteBuffer = 64 << 10

// sstWriter encodes the SSTable format as blocks stream in: header, each
// data block followed by its CRC32C, then the block index, bloom filter,
// properties and footer. Write errors are sticky in the bufio.Writer;
// each block write reports them so a failing disk stops the build early.
type sstWriter struct {
	w      *bufio.Writer
	off    int
	spans  []blockSpan
	hashes []uint64 // bloom base hash of every distinct key
}

func (sw *sstWriter) writeBlock(b *kv.Block) error {
	payload := b.Payload()
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(payload, castagnoli))
	sw.w.Write(payload)
	if _, err := sw.w.Write(sum[:]); err != nil {
		return err
	}
	sw.spans = append(sw.spans, blockSpan{
		firstKey: b.Entry(0).Key,
		off:      uint64(sw.off),
		length:   uint64(len(payload) + 4),
	})
	sw.off += len(payload) + 4
	return nil
}

// write streams it into the data blocks and appends the trailing
// sections, returning the metadata with Bytes set to the file size.
func (sw *sstWriter) write(it kv.Iterator, blockBytes int, maxTSFloor uint64, bitsPerKey int) (kv.FileMeta, error) {
	sw.w.WriteString(sstMagic)
	sw.w.WriteByte(sstVersion)
	sw.off = sstHeaderSize
	meta, err := kv.StreamBlocks(it, blockBytes, maxTSFloor, sw.writeBlock, func(key string) {
		sw.hashes = append(sw.hashes, bloomHash(key))
	})
	if err != nil {
		return kv.FileMeta{}, err
	}

	// The trailing sections are small; buf holds them at their final
	// file offsets (off + position in buf).
	off := sw.off
	var buf []byte
	indexOff := off
	buf = binary.AppendUvarint(buf, uint64(len(sw.spans)))
	for _, sp := range sw.spans {
		buf = binary.AppendUvarint(buf, uint64(len(sp.firstKey)))
		buf = append(buf, sp.firstKey...)
		buf = binary.AppendUvarint(buf, sp.off)
		buf = binary.AppendUvarint(buf, sp.length)
	}
	indexLen := len(buf)

	bloom := newBloomFilter(len(sw.hashes), bitsPerKey)
	for _, h := range sw.hashes {
		bloom.addHash(h)
	}
	bloomOff := off + len(buf)
	buf = append(buf, bloom.marshal()...)
	bloomLen := off + len(buf) - bloomOff

	propsOff := off + len(buf)
	buf = binary.AppendUvarint(buf, uint64(meta.Entries))
	buf = binary.AppendUvarint(buf, meta.MaxTS)
	buf = binary.AppendUvarint(buf, uint64(len(meta.MinKey)))
	buf = append(buf, meta.MinKey...)
	buf = binary.AppendUvarint(buf, uint64(len(meta.MaxKey)))
	buf = append(buf, meta.MaxKey...)
	propsLen := off + len(buf) - propsOff

	for _, v := range []int{indexOff, indexLen, bloomOff, bloomLen, propsOff, propsLen} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = append(buf, make([]byte, 16)...) // reserved
	buf = append(buf, sstFooterMagic...)
	sw.w.Write(buf)
	meta.Bytes = off + len(buf)
	return meta, nil
}

// sstable reads one SSTable through an open file handle, implementing
// kv.BlockSource: the block index and bloom filter live in memory, data
// blocks are pread + checksum-verified on demand and handed to the
// engine still encoded — kv.ParseBlock only indexes the entries, and the
// kv engine caches the result. The handle stays open for the reader's lifetime,
// so a compaction may unlink the file while lock-free scans are still
// reading it (unlink-while-open).
type sstable struct {
	path  string
	f     *os.File
	meta  kv.FileMeta
	index []blockSpan
	bloom *bloomFilter

	// blockReads counts physical data-block reads; the bloom filter
	// tests assert it stays at zero for negative lookups. readBytes,
	// when set by the owning backend, accumulates physical bytes read
	// across the backend's files (IOStats).
	blockReads atomic.Int64
	readBytes  *atomic.Int64
	closed     atomic.Bool
}

// openSSTable opens and validates path: header, footer, index, bloom
// filter and properties are read eagerly; data blocks stay on disk.
func openSSTable(path string) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size < sstHeaderSize+sstFooterSize {
		f.Close()
		return nil, corruptf("sstable %s too short", path)
	}
	hdr := make([]byte, sstHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	if string(hdr[:4]) != sstMagic {
		f.Close()
		return nil, corruptf("sstable %s magic", path)
	}
	if hdr[4] != sstVersion {
		f.Close()
		return nil, fmt.Errorf("durable: unsupported sstable version %d in %s", hdr[4], path)
	}
	footer := make([]byte, sstFooterSize)
	if _, err := f.ReadAt(footer, size-sstFooterSize); err != nil {
		f.Close()
		return nil, err
	}
	if string(footer[len(footer)-8:]) != sstFooterMagic {
		f.Close()
		return nil, corruptf("sstable %s footer magic", path)
	}
	sec := make([]uint32, 6)
	for i := range sec {
		sec[i] = binary.LittleEndian.Uint32(footer[i*4 : i*4+4])
	}
	indexOff, indexLen := int64(sec[0]), int64(sec[1])
	bloomOff, bloomLen := int64(sec[2]), int64(sec[3])
	propsOff, propsLen := int64(sec[4]), int64(sec[5])
	limit := size - sstFooterSize
	for _, span := range [][2]int64{{indexOff, indexLen}, {bloomOff, bloomLen}, {propsOff, propsLen}} {
		if span[0] < 0 || span[1] < 0 || span[0]+span[1] > limit {
			f.Close()
			return nil, corruptf("sstable %s section out of bounds", path)
		}
	}

	t := &sstable{path: path, f: f}
	t.meta.Bytes = int(size)

	readSection := func(off, n int64) ([]byte, error) {
		buf := make([]byte, n)
		_, err := f.ReadAt(buf, off)
		return buf, err
	}
	idxBuf, err := readSection(indexOff, indexLen)
	if err != nil {
		f.Close()
		return nil, err
	}
	count, n := binary.Uvarint(idxBuf)
	if n <= 0 {
		f.Close()
		return nil, corruptf("sstable %s index count", path)
	}
	idxBuf = idxBuf[n:]
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(idxBuf)
		if n <= 0 || uint64(len(idxBuf)-n) < klen {
			f.Close()
			return nil, corruptf("sstable %s index key", path)
		}
		key := string(idxBuf[n : n+int(klen)])
		idxBuf = idxBuf[n+int(klen):]
		off, n := binary.Uvarint(idxBuf)
		if n <= 0 {
			f.Close()
			return nil, corruptf("sstable %s index offset", path)
		}
		idxBuf = idxBuf[n:]
		length, n := binary.Uvarint(idxBuf)
		if n <= 0 {
			f.Close()
			return nil, corruptf("sstable %s index length", path)
		}
		idxBuf = idxBuf[n:]
		// Validate the span now so LoadBlock can trust it: a corrupt
		// length would otherwise size an allocation (and a pread)
		// straight from disk bytes. Every block lives between the
		// header and the footer and carries at least a CRC trailer.
		if length < 4 || off < sstHeaderSize || off > uint64(limit) ||
			length > uint64(limit)-off {
			f.Close()
			return nil, corruptf("sstable %s index span out of bounds", path)
		}
		t.index = append(t.index, blockSpan{firstKey: key, off: off, length: length})
	}

	bloomBuf, err := readSection(bloomOff, bloomLen)
	if err != nil {
		f.Close()
		return nil, err
	}
	if t.bloom, err = unmarshalBloom(bloomBuf); err != nil {
		f.Close()
		return nil, err
	}

	propsBuf, err := readSection(propsOff, propsLen)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := t.parseProps(propsBuf); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

func (t *sstable) parseProps(buf []byte) error {
	entries, n := binary.Uvarint(buf)
	if n <= 0 {
		return corruptf("sstable %s props entries", t.path)
	}
	buf = buf[n:]
	maxTS, n := binary.Uvarint(buf)
	if n <= 0 {
		return corruptf("sstable %s props maxTS", t.path)
	}
	buf = buf[n:]
	readStr := func() (string, error) {
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return "", corruptf("sstable %s props key", t.path)
		}
		s := string(buf[n : n+int(l)])
		buf = buf[n+int(l):]
		return s, nil
	}
	minKey, err := readStr()
	if err != nil {
		return err
	}
	maxKey, err := readStr()
	if err != nil {
		return err
	}
	t.meta.Entries = int(entries)
	t.meta.MaxTS = maxTS
	t.meta.MinKey = minKey
	t.meta.MaxKey = maxKey
	return nil
}

// Meta returns the file metadata (Bytes = real on-disk size).
func (t *sstable) Meta() kv.FileMeta { return t.meta }

// BlockReads returns the number of physical data-block reads served.
func (t *sstable) BlockReads() int64 { return t.blockReads.Load() }

// NumBlocks implements kv.BlockSource.
func (t *sstable) NumBlocks() int { return len(t.index) }

// FirstKey implements kv.BlockSource.
func (t *sstable) FirstKey(i int) string { return t.index[i].firstKey }

// MayContain implements kv.BlockSource via the bloom filter.
func (t *sstable) MayContain(key string) bool { return t.bloom.mayContain(key) }

// LoadBlock implements kv.BlockSource: pread the block, verify its
// checksum, and parse it in place (the block keeps the read buffer). Reads racing a Close (store retired under a
// lock-free scan) surface kv.ErrClosed, which the serving layer already
// absorbs.
func (t *sstable) LoadBlock(i int) (*kv.Block, error) {
	sp := t.index[i]
	buf := make([]byte, sp.length)
	if _, err := t.f.ReadAt(buf, int64(sp.off)); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return nil, kv.ErrClosed
		}
		return nil, err
	}
	if len(buf) < 4 {
		return nil, corruptf("sstable %s block %d too short", t.path, i)
	}
	payload, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, corruptf("sstable %s block %d checksum", t.path, i)
	}
	b, err := kv.ParseBlock(payload)
	if err != nil {
		return nil, fmt.Errorf("sstable %s block %d: %w", t.path, i, err)
	}
	t.blockReads.Add(1)
	if t.readBytes != nil {
		t.readBytes.Add(int64(len(buf)))
	}
	return b, nil
}

// Close releases the file handle.
func (t *sstable) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	return t.f.Close()
}

var _ kv.BlockSource = (*sstable)(nil)
