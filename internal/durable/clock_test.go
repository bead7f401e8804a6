package durable

import (
	"fmt"
	"testing"
)

// Regression for the failover loss-accounting clock: a major compaction
// that drops every tombstone must not regress the store's recorded max
// timestamp. The merged SSTable records at least its inputs' maximum
// (see Backend.Create), so a reopen reseeds the clock where it
// left off — otherwise loss accounting (dead clock − replica clock)
// would overcount and new writes could re-mint used timestamps.
func TestMajorCompactionPreservesClockAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openDurableStore(t, dir)
	const n = 60
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Delete(fmt.Sprintf("key-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before := s.MaxTimestamp()
	if before < 2*n {
		t.Fatalf("clock %d after %d mutations, want at least %d", before, 2*n, 2*n)
	}
	// The major compaction drops every tombstone; without the floor the
	// merged file would record a stale (even zero) max timestamp.
	if err := s.Compact(true); err != nil {
		t.Fatal(err)
	}
	if got := s.MaxTimestamp(); got < before {
		t.Fatalf("clock regressed in-process: %d < %d", got, before)
	}
	s.Close()
	s2 := openDurableStore(t, dir)
	defer s2.Close()
	if got := s2.MaxTimestamp(); got < before {
		t.Fatalf("clock regressed across reopen: %d < %d", got, before)
	}
}
