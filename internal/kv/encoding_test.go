package kv

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"met/internal/sim"
)

// parseEntries parses a payload and materializes every entry.
func parseEntries(payload []byte) ([]Entry, error) {
	b, err := ParseBlock(payload)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, b.Len())
	for i := range out {
		out[i] = b.Entry(i)
	}
	return out, nil
}

func TestBlockCodecRoundTrip(t *testing.T) {
	entries := []Entry{
		{Key: "a", Value: []byte("1"), Timestamp: 1},
		{Key: "b", Value: nil, Timestamp: 2, Tombstone: true},
		{Key: "c", Value: []byte("long value with spaces"), Timestamp: 1 << 40},
	}
	got, err := parseEntries(EncodeBlock(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries", len(got))
	}
	for i := range entries {
		e, g := entries[i], got[i]
		if e.Key != g.Key || string(e.Value) != string(g.Value) ||
			e.Timestamp != g.Timestamp || e.Tombstone != g.Tombstone {
			t.Fatalf("entry %d: %v != %v", i, g, e)
		}
	}
	// Empty block round-trips too.
	if got, err := parseEntries(EncodeBlock(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty block: %v, %v", got, err)
	}
}

func TestBlockCodecProperty(t *testing.T) {
	err := quick.Check(func(keys []string, vals [][]byte, seed uint16) bool {
		rng := sim.NewRNG(uint64(seed))
		sort.Strings(keys) // blocks hold entries in key order
		var entries []Entry
		for i, k := range keys {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			entries = append(entries, Entry{
				Key: k, Value: v, Timestamp: rng.Uint64() >> 1, Tombstone: rng.Intn(2) == 0,
			})
		}
		got, err := parseEntries(EncodeBlock(entries))
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range entries {
			if got[i].Key != entries[i].Key || string(got[i].Value) != string(entries[i].Value) ||
				got[i].Timestamp != entries[i].Timestamp || got[i].Tombstone != entries[i].Tombstone {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBlockCorrupt(t *testing.T) {
	good := EncodeBlock([]Entry{{Key: "k", Value: []byte("v"), Timestamp: 3}})
	cases := [][]byte{
		nil,
		{},
		good[:len(good)-1], // truncated
		append(good, 0xff), // trailing garbage
		{0x05},             // claims 5 entries, has none
		{0x01, 0x00, 0xff}, // bogus key length
		EncodeBlock([]Entry{{Key: "b", Timestamp: 1}, {Key: "a", Timestamp: 2}}), // keys out of order
	}
	for i, c := range cases {
		if _, err := ParseBlock(c); err == nil {
			t.Errorf("case %d: corrupt block decoded", i)
		}
	}
}

// TestFileCodecRoundTrip: a store file's encoded blocks are its whole
// content (the durable backend writes exactly these payloads). Parsing
// them back yields a file that serves every key, and each parsed block
// costs the cache the same Σ Entry.Size as the packed one, so the cache
// holds the same blocks whichever backend produced them.
func TestFileCodecRoundTrip(t *testing.T) {
	var entries []Entry
	for i := 0; i < 500; i++ {
		e := Entry{Key: fmt.Sprintf("key%04d", i/2), Timestamp: uint64(1000 - i)}
		switch i % 5 {
		case 0:
			e.Tombstone = true
		case 1: // empty value
		default:
			e.Value = []byte(fmt.Sprintf("value-%d", i))
		}
		entries = append(entries, e)
	}
	f := buildFile(9, entries, 512)
	if f.NumBlocks() < 2 {
		t.Fatalf("want multiple blocks, got %d", f.NumBlocks())
	}
	src := &memorySource{}
	i := 0
	for bi := 0; bi < f.NumBlocks(); bi++ {
		packed, _ := f.src.LoadBlock(bi)
		parsed, err := ParseBlock(packed.Payload())
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for j := 0; j < packed.Len(); j++ {
			want += entries[i].Size()
			i++
		}
		if packed.Bytes() != want || parsed.Bytes() != want {
			t.Fatalf("block %d: packed %d, parsed %d bytes; Σ Entry.Size = %d", bi, packed.Bytes(), parsed.Bytes(), want)
		}
		src.blocks = append(src.blocks, parsed)
	}
	if i != len(entries) {
		t.Fatalf("blocks hold %d entries, want %d", i, len(entries))
	}
	back := NewStoreFile(10, f.meta, src)
	for i := 0; i < len(entries); i += 2 {
		want := entries[i] // newest version of its key
		e, found, err := back.get(want.Key, nil, nil, nil)
		if err != nil || !found || e.Timestamp != want.Timestamp || e.Tombstone != want.Tombstone || string(e.Value) != string(want.Value) {
			t.Fatalf("get %s = %v, %v, %v; want %v", want.Key, e, found, err, want)
		}
	}
}

// TestFileCodecEmptyFile: an empty stream (a major compaction that
// dropped every entry) packs no block, yet the file keeps the max
// timestamp floor it was built with.
func TestFileCodecEmptyFile(t *testing.T) {
	emitted := 0
	meta, err := StreamBlocks(sliceIter(nil), 64, 42, func(*Block) error {
		emitted++
		return nil
	}, nil)
	if err != nil || emitted != 0 || meta.Entries != 0 || meta.Bytes != 0 || meta.MaxTS != 42 {
		t.Fatalf("empty stream: meta %+v, %d blocks, err %v", meta, emitted, err)
	}
	f, err := BuildStoreFile(1, sliceIter(nil), 64, 42)
	if err != nil || f.NumBlocks() != 0 || f.Entries() != 0 || f.MaxTimestamp() != 42 {
		t.Fatalf("empty file: %v, %v", f, err)
	}
}
