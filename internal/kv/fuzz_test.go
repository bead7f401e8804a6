package kv

// Fuzz harness for the store-file block parser: arbitrary payload bytes
// must either parse or return ErrCorrupt — never panic or size an
// allocation from untrusted input. A block that parses must hand back
// entries that survive an encode/parse round trip unchanged, and its
// in-place key search must agree with a linear scan.

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func FuzzParseBlock(f *testing.F) {
	f.Add(EncodeBlock(nil))
	f.Add(EncodeBlock([]Entry{
		{Key: "a", Value: []byte("1"), Timestamp: 1},
		{Key: "b", Timestamp: 2, Tombstone: true},
	}))
	// A giant entry count must be rejected before it sizes the slice.
	huge := binary.AppendUvarint(nil, 1<<62)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseBlock(data)
		if err != nil {
			if err != ErrCorrupt {
				t.Fatalf("parse error %v, want ErrCorrupt", err)
			}
			return
		}
		entries := make([]Entry, b.Len())
		size := 0
		for i := range entries {
			entries[i] = b.Entry(i)
			size += entries[i].Size()
		}
		if b.Bytes() != size {
			t.Fatalf("Bytes() = %d, Σ Entry.Size = %d", b.Bytes(), size)
		}
		again, err := ParseBlock(EncodeBlock(entries))
		if err != nil {
			t.Fatalf("re-parse of re-encoded block: %v", err)
		}
		if again.Len() != len(entries) {
			t.Fatalf("round trip: %d entries became %d", len(entries), again.Len())
		}
		for i, a := range entries {
			e := again.Entry(i)
			if a.Key != e.Key || a.Timestamp != e.Timestamp || a.Tombstone != e.Tombstone || !bytes.Equal(a.Value, e.Value) {
				t.Fatalf("round trip entry %d: %+v became %+v", i, a, e)
			}
		}
		// Probe every key, and the gaps just before and after each one.
		probes := []string{""}
		for _, e := range entries {
			probes = append(probes, e.Key, e.Key+"\x00")
			if e.Key != "" {
				probes = append(probes, e.Key[:len(e.Key)-1])
			}
		}
		for _, k := range probes {
			want := 0
			for want < len(entries) && entries[want].Key < k {
				want++
			}
			if got := b.seek(k); got != want {
				t.Fatalf("seek(%q) = %d, linear scan says %d", k, got, want)
			}
		}
	})
}
