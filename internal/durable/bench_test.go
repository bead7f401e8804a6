package durable

import (
	"fmt"
	"sync/atomic"
	"testing"

	"met/internal/kv"
)

func benchStore(b *testing.B, durable bool) *kv.Store {
	b.Helper()
	cfg := kv.Config{MemstoreFlushBytes: 8 << 20, BlockBytes: 8 << 10}
	if durable {
		cfg.OpenBackend = Opener(b.TempDir(), Options{})
	}
	s, err := kv.OpenStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

func BenchmarkDurablePut(b *testing.B) {
	s := benchStore(b, true)
	val := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("key-%09d", i), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurablePutParallel exercises group commit: concurrent writers
// share fsyncs, so per-op cost drops well below the serial case on
// hardware with real sync latency.
func BenchmarkDurablePutParallel(b *testing.B) {
	s := benchStore(b, true)
	val := make([]byte, 128)
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			if err := s.Put(fmt.Sprintf("key-%09d", i), val); err != nil {
				b.Fatal(err)
			}
		}
	})
	if w, ok := s.Config().WAL.(*WAL); ok && w.SyncRounds() > 0 {
		b.ReportMetric(float64(b.N)/float64(w.SyncRounds()), "writes/fsync")
	}
}

func BenchmarkMemoryPut(b *testing.B) {
	s := benchStore(b, false)
	val := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("key-%09d", i), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDurableGet(b *testing.B) {
	s := benchStore(b, true)
	val := make([]byte, 128)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("key-%09d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(fmt.Sprintf("key-%09d", i%n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableNegativeGet measures the bloom filter's fast path.
func BenchmarkDurableNegativeGet(b *testing.B) {
	s := benchStore(b, true)
	val := make([]byte, 128)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("key-%09d", i*2), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(fmt.Sprintf("key-%09d", (i%n)*2+1)); err != kv.ErrNotFound {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	w, err := OpenWAL(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { w.Close() })
	e := kv.Entry{Key: "benchmark-key", Value: make([]byte, 128)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Timestamp = uint64(i + 1)
		if err := w.Append(e); err != nil {
			b.Fatal(err)
		}
	}
}

// missStore loads n rows of 128 B values into one flushed SSTable with
// 64 KiB blocks behind a zero-capacity block cache, so every read loads
// and parses its block from disk: the cache-miss path of a read-profile
// node with a cold working set.
func missStore(b *testing.B, n int) *kv.Store {
	b.Helper()
	s, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 64 << 20,
		BlockBytes:         64 << 10,
		BlockCacheBytes:    -1,
		OpenBackend:        Opener(b.TempDir(), Options{NoSync: true}),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	rows := make([]kv.Entry, n)
	for i := range rows {
		rows[i] = kv.Entry{Key: fmt.Sprintf("key-%09d", i), Value: make([]byte, 128)}
	}
	if err := s.ImportEntries(rows); err != nil {
		b.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStoreFileGetMiss is one cache-missing point read: pread a
// 64 KiB block, verify its CRC, find the row.
func BenchmarkStoreFileGetMiss(b *testing.B) {
	const n = 20000
	s := missStore(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(fmt.Sprintf("key-%09d", (i*7919)%n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreFileScanMiss is one cache-missing short scan (YCSB E's
// 1–100 rows, here 50) starting at a random row.
func BenchmarkStoreFileScanMiss(b *testing.B) {
	const n = 20000
	s := missStore(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.Scan(fmt.Sprintf("key-%09d", (i*7919)%n), "", 50)
		if err != nil || len(out) == 0 {
			b.Fatalf("scan: %d rows, %v", len(out), err)
		}
	}
}
