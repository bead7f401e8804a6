package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Block payload format, shared by the memory backend and the on-disk
// SSTables of met/internal/durable (which frame each payload with a
// CRC):
//
//	payload:= entryCount(varint) entry*
//	entry  := flags(1) keyLen(varint) key valLen(varint) val ts(varint)
//
// flags bit 0 marks a tombstone. Entries are sorted (key asc, timestamp
// desc).

const flagTombstone byte = 1 << 0

// ErrCorrupt is returned when decoding fails integrity checks.
var ErrCorrupt = fmt.Errorf("kv: corrupt file data")

// EncodeBlock serializes one block's entries to the wire payload.
func EncodeBlock(entries []Entry) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = appendEntry(buf, e)
	}
	return buf
}

func appendEntry(buf []byte, e Entry) []byte {
	var flags byte
	if e.Tombstone {
		flags |= flagTombstone
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(e.Key)))
	buf = append(buf, e.Key...)
	buf = binary.AppendUvarint(buf, uint64(len(e.Value)))
	buf = append(buf, e.Value...)
	return binary.AppendUvarint(buf, e.Timestamp)
}

// Block is one unit of a store file: a run of consecutive entries that is
// loaded (and cached) as a whole. The configured block size trades random
// reads (small blocks load less extraneous data) against sequential scans
// (large blocks amortize per-block overhead), mirroring HBase's HFile
// block size knob.
//
// A block stays encoded from disk to the caller: it is the payload above
// plus an index of where each entry starts, built by one validating pass
// (ParseBlock) or while the block is packed. Lookups binary-search keys
// inside the payload, and only the entries a read returns or steps over
// are materialized; their values are subslices of the payload. A block
// is immutable and may be shared through the block cache, so those
// values are read-only.
type Block struct {
	payload []byte   // EncodeBlock's format
	offs    []uint32 // offs[i] is where entry i starts in payload
	bytes   int      // Σ Entry.Size, the cache's accounting unit
}

// ParseBlock validates a block payload and indexes its entries without
// copying them. Every field must lie inside the payload, the entry count
// must be plausible for the payload length, no bytes may trail the last
// entry and keys must be in ascending order; anything else is
// ErrCorrupt. The block keeps payload, which must not be modified
// afterwards.
func ParseBlock(payload []byte) (*Block, error) {
	count, n := binary.Uvarint(payload)
	// Each entry takes at least 4 bytes (flags + three 1-byte varints),
	// so a count implying more entries than the payload can hold is
	// corruption — and must not size the allocation below.
	if n <= 0 || count > uint64(len(payload)-n)/4 || len(payload) > math.MaxUint32 {
		return nil, ErrCorrupt
	}
	b := &Block{payload: payload, offs: make([]uint32, count)}
	p := n
	var prev []byte
	for i := range b.offs {
		b.offs[i] = uint32(p)
		if p >= len(payload) {
			return nil, ErrCorrupt
		}
		key, next, ok := field(payload, p+1)
		if !ok {
			return nil, ErrCorrupt
		}
		val, next, ok := field(payload, next)
		if !ok {
			return nil, ErrCorrupt
		}
		_, m := binary.Uvarint(payload[next:])
		if m <= 0 {
			return nil, ErrCorrupt
		}
		if i > 0 && bytes.Compare(prev, key) > 0 {
			return nil, ErrCorrupt
		}
		prev = key
		p = next + m
		b.bytes += len(key) + len(val) + 16
	}
	if p != len(payload) {
		return nil, ErrCorrupt
	}
	return b, nil
}

// field reads the length-prefixed byte string at buf[p:], returning it
// and the offset just past it; ok is false when it is truncated.
func field(buf []byte, p int) (data []byte, next int, ok bool) {
	l, n := binary.Uvarint(buf[p:])
	if n <= 0 || uint64(len(buf)-p-n) < l {
		return nil, 0, false
	}
	start := p + n
	end := start + int(l)
	return buf[start:end:end], end, true
}

// Len returns the number of entries in the block.
func (b *Block) Len() int { return len(b.offs) }

// Bytes returns the block's logical size, Σ Entry.Size over its entries
// (the block cache's accounting unit).
func (b *Block) Bytes() int { return b.bytes }

// Payload returns the encoded block (EncodeBlock's format). It is shared
// with the block; callers must not modify it.
func (b *Block) Payload() []byte { return b.payload }

// key returns the key bytes of entry i, inside the payload.
func (b *Block) key(i int) []byte {
	k, _, _ := field(b.payload, int(b.offs[i])+1)
	return k
}

// Entry materializes entry i. The key is a fresh string; the value
// aliases the payload and is read-only.
func (b *Block) Entry(i int) Entry {
	p := int(b.offs[i])
	flags := b.payload[p]
	key, next, _ := field(b.payload, p+1)
	val, next, _ := field(b.payload, next)
	ts, _ := binary.Uvarint(b.payload[next:])
	e := Entry{Key: string(key), Timestamp: ts, Tombstone: flags&flagTombstone != 0}
	if len(val) > 0 {
		e.Value = val
	}
	return e
}

// seek returns the index of the first entry whose key is >= key (Len()
// when there is none). Entries of one key are newest first, so a hit is
// the key's newest version in this block.
func (b *Block) seek(key string) int {
	return sort.Search(len(b.offs), func(i int) bool { return string(b.key(i)) >= key })
}

// blockBuilder encodes entries into one block as they are packed,
// recording entry offsets on the way so the result needs no parse.
type blockBuilder struct {
	buf   []byte // binary.MaxVarintLen64 bytes reserved for the count, then entries
	offs  []uint32
	bytes int
}

func (bb *blockBuilder) add(e Entry, sizeHint int) {
	if bb.buf == nil {
		bb.buf = make([]byte, binary.MaxVarintLen64, binary.MaxVarintLen64+sizeHint)
	}
	bb.offs = append(bb.offs, uint32(len(bb.buf)))
	bb.buf = appendEntry(bb.buf, e)
	bb.bytes += e.Size()
}

// finish writes the entry count just before the first entry and returns
// the block; the builder starts a fresh buffer for the next one.
func (bb *blockBuilder) finish() *Block {
	var count [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(count[:], uint64(len(bb.offs)))
	start := binary.MaxVarintLen64 - n
	copy(bb.buf[start:], count[:n])
	payload := bb.buf[start:]
	if cap(payload) > 2*len(payload) {
		// A short block (a file's last) gives back its unused capacity:
		// the memory backend keeps blocks for the file's lifetime.
		payload = append([]byte(nil), payload...)
	}
	for i := range bb.offs {
		bb.offs[i] -= uint32(start)
	}
	b := &Block{payload: payload, offs: bb.offs, bytes: bb.bytes}
	*bb = blockBuilder{}
	return b
}
