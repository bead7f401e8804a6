package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"met/internal/kv"
)

// identityEntries returns n sorted entries that exercise the block
// packer: keys with one to four versions, every 50th key with forty
// versions (more than a 1 KiB block holds), tombstones, empty values,
// values up to 300 bytes and timestamps past 2^33 (multi-byte varints).
func identityEntries(n int) []kv.Entry {
	out := make([]kv.Entry, 0, n)
	for k := 0; len(out) < n; k++ {
		versions := 1 + k%4
		if k%50 == 7 {
			versions = 40
		}
		for v := 0; v < versions && len(out) < n; v++ {
			e := kv.Entry{Key: fmt.Sprintf("row-%06d", k), Timestamp: 1<<33 + uint64(k*64+versions-v)}
			switch {
			case (k+v)%11 == 0:
				e.Tombstone = true
			case (k+v)%7 == 0:
				e.Value = []byte{}
			default:
				e.Value = bytes.Repeat([]byte{byte('a' + k%26)}, (k*37+v*11)%300)
			}
			out = append(out, e)
		}
	}
	return out
}

// identityCases are the byte-identity inputs — entry count, block size
// and max-timestamp floor — with the SHA-256 of the SSTable that the
// previous writer (which packed a fully materialized []kv.Entry)
// produced for them. The streaming writer must reproduce those files
// byte for byte: the on-disk format did not change.
var identityCases = []struct {
	n          int
	blockBytes int
	floor      uint64
	sha256     string
}{
	{0, 1 << 10, 0, "9b10625c97f9a83a106d3d5f4d7b773b9d07f5e82fac39377dffb85126777ea2"},
	{1, 1 << 10, 0, "f446a1a1e5d13e08baf7e1fbda612e99001e0bdfc635c4b5f802754017ed8a57"},
	{2, 1 << 10, 0, "59c827e86294f8cd3f01cc577daab5358aebde58aebb9768dbba68a68d93fd30"},
	{10, 1 << 10, 0, "42c4f815189de946a0c54ba390b10609941da667ebdd7267f6417d0f8dbecf00"},
	{100, 1 << 10, 0, "70398eabf47a03e7afee8a286e29c459f3a82b0930776d7e8ba0cfffff3e6299"},
	{500, 1 << 10, 1 << 40, "1b75f3e891d160070560516bb7ece8cb02f453f223564dc757c3ae85232c7b44"},
	{1000, 1 << 10, 0, "5992669c5f0face2d76a30a23190b546ef2cce17ab6128dd2f7fab8d0dc5c89a"},
	{1000, 128, 0, "b8dd011e552855bbb1d16cc247b7a9863aa95002b05f00d69407b97d099eeca8"},
	{3000, 1 << 10, 0, "711382de3b4d035cce3a373fa26c4e3c9ef66d4087b39b8e077168c44cc09677"},
	{3000, 64 << 10, 0, "ebb85e9602697e72f8a78da9acf3f9cdb3a8fc0c6de6710b48ca2237f61e13ac"},
	{0, 1 << 10, 77, "a89d79575be15907a3610c4afb100d9bd24c030d53f7790686fc8ae8c46b8da4"},
}

func TestStreamingWriterMatchesReferenceBytes(t *testing.T) {
	for _, c := range identityCases {
		t.Run(fmt.Sprintf("n=%d/block=%d/floor=%d", c.n, c.blockBytes, c.floor), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.sst")
			entries := identityEntries(c.n)
			meta, err := writeSSTable(path, entryIter(entries), c.blockBytes, Options{NoSync: true}.withDefaults(), nil, c.floor)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Bytes != len(data) {
				t.Fatalf("meta.Bytes = %d, file is %d bytes", meta.Bytes, len(data))
			}
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != c.sha256 {
				t.Fatalf("SSTable bytes changed: sha256 %x, want %s", sum, c.sha256)
			}
			// The file reads back entry for entry.
			r, err := openSSTable(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			i := 0
			for bi := 0; bi < r.NumBlocks(); bi++ {
				b, err := r.LoadBlock(bi)
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < b.Len(); j++ {
					got, want := b.Entry(j), entries[i]
					if got.Key != want.Key || got.Timestamp != want.Timestamp || got.Tombstone != want.Tombstone || !bytes.Equal(got.Value, want.Value) {
						t.Fatalf("entry %d = %v, want %v", i, got, want)
					}
					i++
				}
			}
			if i != c.n {
				t.Fatalf("read back %d entries, want %d", i, c.n)
			}
		})
	}
}

// TestCompactionReadErrorLeavesNoOutput corrupts a data block in the
// middle of one input file. The streaming compaction has already written
// output blocks when it reaches the bad block, and must then fail
// without publishing anything: the file stack is unchanged and neither
// a new sst-*.sst nor its .tmp is left in the directory.
func TestCompactionReadErrorLeavesNoOutput(t *testing.T) {
	dir := t.TempDir()
	backend, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 1 << 30, // flushes only when asked
		BlockBytes:         1 << 10,
		MaxStoreFiles:      1000, // the test drives compaction
		OpenBackend:        func() (kv.StorageBackend, error) { return backend, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for f := 0; f < 3; f++ {
		for i := 0; i < 300; i++ {
			if err := s.Put(fmt.Sprintf("k%04d", i*3+f), bytes.Repeat([]byte{'v'}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := s.FileStats()
	if len(before) != 3 {
		t.Fatalf("files = %d, want 3", len(before))
	}
	r := backend.Reader(before[1].ID)
	if r.NumBlocks() < 4 {
		t.Fatalf("input has %d blocks; want several", r.NumBlocks())
	}
	sp := r.index[r.NumBlocks()/2]
	f, err := os.OpenFile(r.path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff}, int64(sp.off)+8); err != nil {
		t.Fatal(err)
	}
	f.Close()
	listing := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(names)
		return names
	}
	filesBefore := listing()

	_, err = s.CompactFiles(kv.CompactionSelection{Major: true})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("compaction over a corrupt input block: err = %v, want a checksum failure", err)
	}
	after := s.FileStats()
	if len(after) != len(before) {
		t.Fatalf("file stack changed: %d files, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i].ID != before[i].ID {
			t.Fatalf("file stack changed at %d: id %d, want %d", i, after[i].ID, before[i].ID)
		}
	}
	if got := listing(); fmt.Sprint(got) != fmt.Sprint(filesBefore) {
		t.Fatalf("directory after failed compaction:\n%v\nwant:\n%v", got, filesBefore)
	}
	// Rows outside the corrupt block still serve.
	if v, err := s.Get("k0000"); err != nil || len(v) != 64 {
		t.Fatalf("Get after failed compaction: %q, %v", v, err)
	}
}
