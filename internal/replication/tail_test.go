package replication

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"met/internal/durable"
	"met/internal/kv"
)

// sharedLogRegion is one region whose store appends through a shared,
// tail-keeping server log that reports its commit rounds to r — the
// wiring a region server gives every hosted region.
type sharedLogRegion struct {
	name string
	wal  *durable.WAL
	s    *kv.Store
}

func openSharedLogRegion(t *testing.T, base string, r *Replicator, dests ...string) *sharedLogRegion {
	t.Helper()
	w, err := durable.OpenWAL(filepath.Join(base, "wal"), durable.Options{
		KeepTail: true,
		OnSynced: func(regions map[string]int) {
			for rn, n := range regions {
				r.NoteTailRecords(rn, n)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	const name = "region-a"
	s, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 1 << 20, // the tests flush by hand
		BlockBytes:         1 << 10,
		MaxStoreFiles:      -1,
		WAL:                w.Region(name),
		OpenBackend:        durable.Opener(filepath.Join(base, "primary"), durable.Options{ExternalWAL: true}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	r.Track(name, s.ExportFiles, func() []string { return dests },
		func(after uint64) durable.TailChunk { return w.TailAfter(name, after) })
	s.SetFilesChanged(func() { r.Notify(name) })
	return &sharedLogRegion{name: name, wal: w, s: s}
}

func tailKey(i int) string { return fmt.Sprintf("k%05d", i) }

func (g *sharedLogRegion) put(t *testing.T, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := g.s.Put(tailKey(i), []byte("v-"+tailKey(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// readTail reads dir's shipped tail file.
func readTail(t *testing.T, dir string) ([]kv.Entry, bool) {
	t.Helper()
	entries, torn, err := durable.ReadTailFile(durable.TailFilePath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return entries, torn
}

// waitTailHolds polls until dir's tail file holds key.
func waitTailHolds(t *testing.T, dir, key string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		entries, _ := readTail(t, dir)
		for _, e := range entries {
			if e.Key == key {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("tail file in %s never received %s", dir, key)
}

// recoverFromReplica rebuilds the region from a replica directory
// alone, the way a failover does: copy its SSTables into a fresh
// directory, open a store there, replay the shipped tail. Every key
// below n must read back.
func recoverFromReplica(t *testing.T, replica string, n int) {
	t.Helper()
	fresh := filepath.Join(t.TempDir(), "recovered")
	if err := os.MkdirAll(fresh, 0o755); err != nil {
		t.Fatal(err)
	}
	ids, err := ListSSTables(replica)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		src := SSTablePath(replica, id)
		if _, err := CopyFile(src, filepath.Join(fresh, filepath.Base(src))); err != nil {
			t.Fatal(err)
		}
	}
	s, err := kv.OpenStore(kv.Config{BlockBytes: 1 << 10, OpenBackend: durable.Opener(fresh, durable.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tail, _ := readTail(t, replica)
	if _, err := s.ApplyReplayed(tail); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for i := 0; i < n; i++ {
		if v, err := s.Get(tailKey(i)); err != nil || string(v) != "v-"+tailKey(i) {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("recovery from the replica alone lost %d of %d acknowledged writes (%d SSTables, %d tail records)",
			lost, n, len(ids), len(tail))
	}
}

// gateBudget blocks every background charge until release is closed,
// announcing the first one on entered: it holds a reconcile inside its
// SSTable copies.
type gateBudget struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (b *gateBudget) WaitBackground(int) {
	b.once.Do(func() { close(b.entered) })
	<-b.release
}

func (b *gateBudget) NoteForeground(int) {}

// TestFloorShipKeepsFlushedRecordsUntilSSTableCopied is the tail-shrink
// window: a flush truncates the region's tail while the reconcile that
// would copy its SSTable is held back, and the bounded-lag floor ships
// meanwhile. The floor may only append, so the follower's tail file
// still holds the flushed records and a recovery from the replica
// directory alone returns every acknowledged write. Once the SSTable is
// copied, the reconcile shrinks the file to the unflushed records.
func TestFloorShipKeepsFlushedRecordsUntilSSTableCopied(t *testing.T) {
	base := t.TempDir()
	replica := filepath.Join(base, "replica")
	budget := &gateBudget{entered: make(chan struct{}), release: make(chan struct{})}
	r := New(Config{Budget: budget, TailFloorRecords: 4, TailFloorInterval: 5 * time.Millisecond})
	defer r.Close()
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(budget.release) }) }
	defer release()
	g := openSharedLogRegion(t, base, r, replica)

	// Batch A reaches an SSTable; its reconcile copies it and then
	// wedges the only worker on the budget.
	g.put(t, 0, 50)
	if err := g.s.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-budget.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("reconcile never reached the budget")
	}
	// Batch B reaches the follower through the floor only, then a flush
	// moves it into an SSTable the wedged worker cannot copy.
	g.put(t, 50, 100)
	waitTailHolds(t, replica, tailKey(99))
	if err := g.s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Batch C ships through the floor after the truncation.
	g.put(t, 100, 150)
	waitTailHolds(t, replica, tailKey(149))

	// Kill here: the replica holds A's SSTable and the tail file only.
	recoverFromReplica(t, replica, 150)

	// Unwedge: the reconcile copies B's SSTable and only then drops B
	// from the tail file.
	release()
	r.Quiesce()
	tail, torn := readTail(t, replica)
	if torn || len(tail) != 50 || tail[0].Key != tailKey(100) {
		t.Fatalf("tail after the reconcile: %d records (torn=%v), want exactly batch C's 50", len(tail), torn)
	}
	recoverFromReplica(t, replica, 150)
}

// TestFailedTailAppendIsFollowedByRewrite: an append that fails part-way
// may leave a torn frame, and replay stops at the first torn frame. The
// next write to that file must therefore be a whole rewrite, never
// another append, and appends resume after it.
func TestFailedTailAppendIsFollowedByRewrite(t *testing.T) {
	base := t.TempDir()
	replica := filepath.Join(base, "replica")
	// No floor: every ship is the worker's, after a commit round.
	r := New(Config{TailFloorRecords: -1, TailFloorInterval: -1})
	defer r.Close()
	g := openSharedLogRegion(t, base, r, replica)

	var appends int
	prev := appendTail
	defer func() { appendTail = prev }()
	appendTail = func(path string, entries []kv.Entry, noSync bool) (int64, error) {
		appends++
		return prev(path, entries, noSync)
	}

	g.put(t, 0, 10)
	r.Quiesce()
	if tail, torn := readTail(t, replica); torn || len(tail) != 10 {
		t.Fatalf("first ships: %d records (torn=%v), want 10", len(tail), torn)
	}
	// Appends cost the new records only: one record, one frame.
	before := r.Stats()
	g.put(t, 10, 11)
	r.Quiesce()
	after := r.Stats()
	if after.TailFrames-before.TailFrames != 1 || after.TailBytes-before.TailBytes > 64 {
		t.Fatalf("shipping one record wrote %d frames / %d bytes; want one small frame",
			after.TailFrames-before.TailFrames, after.TailBytes-before.TailBytes)
	}
	if appends == 0 {
		t.Fatal("no ship appended")
	}

	// The next append writes half a frame and fails. Any later append
	// must find an intact file: a torn one means it was not rewritten.
	failNext, failed, ontoTorn := true, 0, 0
	appendTail = func(path string, entries []kv.Entry, noSync bool) (int64, error) {
		appends++
		if _, torn, err := durable.ReadTailFile(path); err == nil && torn {
			ontoTorn++
		}
		if !failNext {
			return prev(path, entries, noSync)
		}
		failNext = false
		failed++
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		if _, err := f.Write([]byte{200, 0, 0, 0, 0xde, 0xad}); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("injected: disk full")
	}
	g.put(t, 11, 20)
	r.Quiesce()
	if failed != 1 {
		t.Fatalf("injected %d append failures, want 1", failed)
	}
	if ontoTorn > 0 {
		t.Fatalf("%d appends went onto the torn file; a failed append must be followed by a rewrite", ontoTorn)
	}
	tail, torn := readTail(t, replica)
	if torn || len(tail) != 20 {
		t.Fatalf("after the failed append: %d records (torn=%v); want a rewritten file with all 20", len(tail), torn)
	}

	// Appends resume on the rewritten file.
	n := appends
	g.put(t, 20, 30)
	r.Quiesce()
	if appends == n {
		t.Fatal("ships after the rewrite did not append")
	}
	if tail, torn := readTail(t, replica); torn || len(tail) != 30 {
		t.Fatalf("after resumed appends: %d records (torn=%v), want 30", len(tail), torn)
	}
}

// TestTailRewriteKeepsNewestVersions: a reconcile that shrinks a tail
// file keeps only the newest version of each key, and replay still
// rebuilds every key's current value.
func TestTailRewriteKeepsNewestVersions(t *testing.T) {
	base := t.TempDir()
	replica := filepath.Join(base, "replica")
	r := New(Config{TailFloorRecords: -1, TailFloorInterval: -1})
	defer r.Close()
	g := openSharedLogRegion(t, base, r, replica)
	g.s.SetFilesChanged(nil) // the test decides when to reconcile

	g.put(t, 0, 10)
	r.Quiesce()
	if err := g.s.Flush(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if err := g.s.Put(tailKey(3), []byte(fmt.Sprintf("v%d", v))); err != nil {
			t.Fatal(err)
		}
	}
	g.put(t, 10, 12)
	r.Quiesce()
	if tail, _ := readTail(t, replica); len(tail) != 17 {
		t.Fatalf("appended tail: %d records, want all 17 (the flushed 10 stay until a reconcile)", len(tail))
	}
	r.Notify(g.name)
	r.Quiesce()
	tail, torn := readTail(t, replica)
	if torn || len(tail) != 3 {
		t.Fatalf("shrunk tail: %d records (torn=%v), want 3: the newest %s and two new keys", len(tail), torn, tailKey(3))
	}
	if tail[0].Key != tailKey(3) || string(tail[0].Value) != "v4" {
		t.Fatalf("shrunk tail kept %s=%q, want the newest version v4", tail[0].Key, tail[0].Value)
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Timestamp <= tail[i-1].Timestamp {
			t.Fatalf("shrunk tail out of timestamp order at %d: %d after %d", i, tail[i].Timestamp, tail[i-1].Timestamp)
		}
	}
}

// TestStaleTempSweepSparesTailTemp: the stale-temp sweep removes only
// SSTable copy debris. A wal-tail.log.tmp belongs to a tail ship that is
// about to rename it into place; deleting it failed that ship.
func TestStaleTempSweepSparesTailTemp(t *testing.T) {
	dir := t.TempDir()
	sstTmp := filepath.Join(dir, durable.SSTableFileName(42)+".tmp")
	tailTmp := durable.TailFilePath(dir) + ".tmp"
	for _, p := range []string{sstTmp, tailTmp} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ListSSTables(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sstTmp); !os.IsNotExist(err) {
		t.Fatalf("SSTable temp debris survived the sweep: %v", err)
	}
	if _, err := os.Stat(tailTmp); err != nil {
		t.Fatalf("the sweep removed a tail ship's temp file: %v", err)
	}
}
