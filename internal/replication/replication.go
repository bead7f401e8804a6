// Package replication maintains real on-disk copies of every region's
// immutable SSTables on follower servers, so a hard-killed server's
// regions can be reopened elsewhere from the copies alone — the
// HBase-on-HDFS property (region data survives a datanode loss) that
// the simulated hdfs layer only pretended to have.
//
// # Replica layout
//
// Each region server owns one Replicator (like its compactor pool).
// The replicator tracks the server's hosted regions; whenever a
// region's store changes its file stack — a flush added an SSTable, a
// compaction replaced a run (kv.Config.OnFilesChanged, plus the
// compactor pool's OnCompacted fan-out) — the region is enqueued and a
// background worker *reconciles* each follower's replica directory
// against the primary's current stack:
//
//	<DataDir>/regions/<region>             primary store (WAL + SSTables)
//	<DataDir>/replica/<follower>/<region>  that follower's copy
//	                                       (SSTables only, same names)
//
// Missing SSTables are copied in (write-to-temp/fsync/rename, so a
// crash never leaves a half-copied file visible); SSTables the primary
// has compacted away are retired. Copies are charged to the shared
// compaction I/O budget as background bytes, so shipping yields to
// foreground serving exactly like compaction does. Followers are chosen
// by the hdfs.Namenode's replica placement (local-first, least-used)
// and recorded per region in the META catalog's table rows, which is
// how a cold start — and Master.RecoverServer — rediscovers placement.
//
// # Tail streaming
//
// SSTables alone leave a loss window on a server kill: the primary's
// unflushed memstore. The replicator therefore also keeps a copy of the
// region's synced WAL tail — its durable-but-unflushed records, read
// from the server's shared log (durable.WAL.TailAfter) — in a
// wal-tail.log frame file per replica directory. Master.RecoverServer
// replays that file over the replica SSTables, so the loss window
// shrinks to the records no fsync covered plus shipping lag — 0 after a
// Quiesce.
//
// A tail ship costs O(records synced since the last ship), not
// O(unflushed tail): the replicator keeps a cursor per follower
// directory (the last WAL sequence number shipped there) and appends
// only the newer frames, then fsyncs the file. Ships run after every
// group-commit round (NoteTailRecords queues one on the workers) and,
// bounded-lag, from the floor goroutine. The file is rewritten whole
// (temp file, fsync, rename) only
//
//   - on the first ship to a directory — cursors live in memory, so this
//     also covers every restart. The rewrite keeps the records the file
//     already holds and adds the current tail;
//   - on the ship after a failed append, which may have left a torn
//     frame behind: replay stops at the first torn frame, so anything
//     appended after it would be invisible. The rewrite is made the same
//     way, keeping every intact record;
//   - by a reconcile, when the file holds more records than the newest
//     versions of the tail: records a flush moved into an SSTable (see
//     Recovery ordering), or versions a newer record of the same key
//     shadows.
//
// Every rewrite keeps only the newest version of each key: replay only
// rebuilds the store's current contents.
//
// # Recovery ordering
//
// Only a reconcile drops flushed records from a tail file, and only
// after the SSTables holding them are in the same directory. The shared log
// gives each region's tail a generation that changes whenever a flush
// truncation (or a drop) removes records. A reconcile samples the
// generation, then snapshots the primary's file stack and copies the
// missing SSTables into each directory; a flush installs its SSTable in
// the stack before it truncates the tail, so every record removed before
// the sample is in a copied file. It then rewrites a directory's tail
// file to the current tail only if the generation is still the sampled
// one and every snapshot file reached that directory. A flush racing
// the reconcile changes the generation, so the file keeps its records
// until the next reconcile — the one that flush's own notification
// queues — has copied the new SSTable. Every other ship only appends,
// or rewrites keeping every record the file holds. So no tail file
// loses a flushed memstore's records before the SSTable holding them
// reaches the follower; what a kill can still lose is the synced
// records no ship has reached yet, which the tail floor bounds.
//
// The replica directory is crash-consistent by construction: every
// visible SSTable is a complete, fsynced copy of an immutable file, and
// a directory holding both a compaction's inputs and its output is the
// exact state the engine itself tolerates after a crash mid-compaction
// (duplicate entries dedup at read time). The tail file is CRC-framed:
// a ship torn by a crash truncates replay to the last good record, and
// records a flush already covers replay as duplicates of SSTable
// entries. Reopening a store over a seeded directory therefore needs no
// replication-specific recovery code — Master.RecoverServer copies the
// replica's SSTables into a fresh region directory, opens it like any
// other cold store, replays the tail file through the engine, then
// commits the new layout through the catalog (see hbase.RecoverServer
// for the commit ordering).
package replication

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"met/internal/durable"
	"met/internal/kv"
	"met/internal/obs"
)

// Config tunes a Replicator. The zero value gets one worker, an
// unlimited budget and the default bounded-lag tail floor.
type Config struct {
	// Workers is the number of concurrent shipping goroutines.
	// Defaults to 1; distinct regions ship in parallel with more.
	Workers int
	// Budget, when non-nil, receives every copied byte as background
	// I/O (compaction.Budget implements this), so replication shares
	// the compaction/serving bandwidth arbitration: shipping blocks
	// when foreground traffic has depleted the budget. Tail ships are
	// exempt (see the TailFloor fields).
	Budget kv.IOBudget
	// TailFloorRecords is K in the bounded-lag guarantee: once a region
	// has accumulated K freshly synced records (NoteTailRecords) since
	// its last tail ship, its tail ships directly — bypassing both the
	// worker queue and the I/O budget, because a mid-burst reconcile can
	// sit behind budget-starved SSTable copies for arbitrarily long and
	// the loss bound would silently become "whatever the burst wrote".
	// 0 means the default (256); negative disables the record floor.
	TailFloorRecords int
	// TailFloorInterval is T in the bounded-lag guarantee: any region
	// with at least one unshipped synced record has its tail shipped at
	// least every T. 0 means the default (200ms); negative disables the
	// timer floor.
	TailFloorInterval time.Duration
}

// Tail-floor defaults (Config.TailFloorRecords/TailFloorInterval zero
// values).
const (
	DefaultTailFloorRecords  = 256
	DefaultTailFloorInterval = 200 * time.Millisecond
)

// target is one tracked region: how to snapshot its primary file stack
// and read its synced WAL tail, and where its replicas live. All are
// closures so the replicator always sees the region's *current* store
// and follower set — a server restart swaps the store, a follower
// re-pick changes the destinations, and none needs to re-register.
type target struct {
	files func() ([]kv.ExportedFile, bool)
	dests func() []string
	tail  func(after uint64) durable.TailChunk

	// ts is the region's follower tail-file state. Re-tracking a region
	// keeps it (the log and the files are the same); Untrack drops it.
	ts *tailState
	// lag counts synced-but-unshipped records (guarded by Replicator.mu;
	// reset under ts.mu *before* the tail is read, so every counted
	// record is in the ship that zeroed it).
	lag int
}

// tailState is what the replicator knows about one region's follower
// tail files.
type tailState struct {
	// mu serializes tail ships for the region across the worker and
	// floor goroutines, so two ships never write one file at once and a
	// cursor always describes its file.
	mu sync.Mutex
	// cursors maps a replica directory to what its tail file holds. A
	// directory without a cursor holds a file of unknown content (first
	// ship, or a failed append): it is rewritten before anything is
	// appended to it.
	cursors map[string]tailCursor
}

// tailCursor describes one follower's tail file.
type tailCursor struct {
	// seq is the WAL sequence number of the newest record the file
	// holds: the next append ships the records after it.
	seq uint64
	// frames counts the records in the file. A reconcile compares it
	// with the newest versions of the current tail to tell whether the
	// file holds records the tail no longer needs (flushed or shadowed).
	frames int
}

// shipKind says what a tail ship may do to a follower's file.
type shipKind int

const (
	// shipSynced is the worker ship queued after a group-commit round:
	// it appends only.
	shipSynced shipKind = iota
	// shipFloor is the bounded-lag floor ship: it appends only.
	shipFloor
	// shipReconcile follows a reconcile's SSTable copies and may shrink
	// a file to the exact tail (see Recovery ordering).
	shipReconcile
)

// appendTail is the tail-file append the ships use; tests swap it to
// inject a failure part-way through an append.
var appendTail = durable.AppendTailFile

// Replicator ships immutable SSTables to follower replica directories,
// one per region server. Notifications coalesce: a region enqueued ten
// times before a worker gets to it is reconciled once, against the
// newest stack.
type Replicator struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	targets map[string]*target
	// queued holds every queued region: true when a full reconcile is
	// wanted, false for a tail ship only.
	queued map[string]bool
	queue  []string // FIFO of region names
	active int
	closed bool
	wg     sync.WaitGroup

	// kick wakes the tail-floor goroutine when some region's lag crossed
	// TailFloorRecords (buffered: one pending wake is enough — the floor
	// re-scans every lagged region per wake). stopc ends the goroutine.
	kick  chan struct{}
	stopc chan struct{}

	filesShipped   atomic.Int64
	bytesShipped   atomic.Int64
	filesRetired   atomic.Int64
	failures       atomic.Int64
	syncs          atomic.Int64
	tailShips      atomic.Int64
	tailBytes      atomic.Int64
	tailFrames     atomic.Int64
	tailFloorShips atomic.Int64

	// shipHist times replica-directory reconciles that copied at least
	// one SSTable; tailHist times WAL-tail frame-file ships.
	shipHist obs.Histogram
	tailHist obs.Histogram
}

// New starts a replicator with cfg.Workers background workers plus, when
// the bounded-lag tail floor is enabled, one floor goroutine.
func New(cfg Config) *Replicator {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.TailFloorRecords == 0 {
		cfg.TailFloorRecords = DefaultTailFloorRecords
	}
	if cfg.TailFloorInterval == 0 {
		cfg.TailFloorInterval = DefaultTailFloorInterval
	}
	r := &Replicator{
		cfg:     cfg,
		targets: make(map[string]*target),
		queued:  make(map[string]bool),
		kick:    make(chan struct{}, 1),
		stopc:   make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go r.worker()
	}
	if cfg.TailFloorRecords > 0 || cfg.TailFloorInterval > 0 {
		r.wg.Add(1)
		go r.floorLoop()
	}
	return r
}

// Track registers a region for replication. files snapshots the
// region's current primary SSTable stack (kv.Store.ExportFiles of
// whatever store currently backs it); dests returns the absolute
// replica directories to keep in sync (one per follower); tail, when
// non-nil, reads the region's synced-but-unflushed WAL records after a
// sequence number (durable.WAL.TailAfter) for tail streaming — nil
// disables it (no shared log, or an in-memory store). Tracking is
// idempotent by region name; re-tracking replaces the closures and
// keeps the follower tail-file cursors, so tail must read the same log.
func (r *Replicator) Track(region string, files func() ([]kv.ExportedFile, bool), dests func() []string, tail func(after uint64) durable.TailChunk) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	ts := &tailState{cursors: make(map[string]tailCursor)}
	if old := r.targets[region]; old != nil {
		ts = old.ts
	}
	r.targets[region] = &target{files: files, dests: dests, tail: tail, ts: ts}
}

// Untrack stops replicating a region (it moved away or was retired).
// In-flight reconciliation of the region finishes; queued work is
// dropped at pop time.
func (r *Replicator) Untrack(region string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.targets, region)
}

// Notify enqueues a tracked region for reconciliation. Repeated
// notifications for the same region coalesce until a worker pops it.
func (r *Replicator) Notify(region string) {
	r.enqueue(region, true)
}

// enqueue queues region for a worker: a full reconcile when reconcile
// is set, else a tail ship. Queued work for a region coalesces, and a
// reconcile subsumes a tail ship.
func (r *Replicator) enqueue(region string, reconcile bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.targets[region] == nil {
		return
	}
	if wanted, ok := r.queued[region]; ok {
		r.queued[region] = wanted || reconcile
		return
	}
	r.queued[region] = reconcile
	r.queue = append(r.queue, region)
	// Broadcast, not Signal: workers and Quiesce callers share the
	// condition variable, and a lone signal could wake a quiescer (who
	// just re-waits) instead of an idle worker.
	r.cond.Broadcast()
}

// NoteTailRecords credits region with n freshly fsync-covered records
// (the WAL's OnSynced counts) and queues a tail ship for it on the
// workers — the records are shippable now, and the ship appends only
// them. When the accumulated lag reaches Config.TailFloorRecords the
// floor goroutine is woken as well, to ship directly — the "ship at
// least every K records" half of the bounded-lag guarantee, which must
// hold even while the workers are stuck behind budget-starved SSTable
// copies. Must never block: it runs on a committing writer's goroutine.
func (r *Replicator) NoteTailRecords(region string, n int) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	t := r.targets[region]
	var over bool
	if t != nil && !r.closed {
		t.lag += n
		over = r.cfg.TailFloorRecords > 0 && t.lag >= r.cfg.TailFloorRecords
	}
	r.mu.Unlock()
	if t == nil || t.tail == nil {
		return
	}
	r.enqueue(region, false)
	if over {
		select {
		case r.kick <- struct{}{}:
		default: // a wake is already pending; the floor re-scans all lag
		}
	}
}

// floorLoop is the bounded-lag tail shipper: woken by NoteTailRecords
// when any region's lag crosses the record floor, and by a ticker so no
// synced record waits longer than the interval floor. It ships tails
// directly — not through the worker queue, whose budget-charged SSTable
// copies can starve for arbitrarily long mid-burst.
func (r *Replicator) floorLoop() {
	defer r.wg.Done()
	var tick <-chan time.Time
	if r.cfg.TailFloorInterval > 0 {
		ticker := time.NewTicker(r.cfg.TailFloorInterval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-r.stopc:
			return
		case <-r.kick:
			r.shipLagged(r.cfg.TailFloorRecords)
		case <-tick:
			r.shipLagged(1)
		}
	}
}

// shipLagged ships the tail of every region whose lag is at least min.
func (r *Replicator) shipLagged(min int) {
	if min < 1 {
		min = 1
	}
	type lagged struct {
		region string
		t      *target
	}
	var work []lagged
	r.mu.Lock()
	for region, t := range r.targets {
		if t.lag >= min && t.tail != nil {
			work = append(work, lagged{region, t})
		}
	}
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return
	}
	for _, w := range work {
		if err := r.shipTail(w.t, shipFloor, 0, nil); err != nil {
			r.failures.Add(1)
		}
	}
}

// Quiesce blocks until every queued notification has been reconciled
// and no worker is mid-ship — the "replication caught up" barrier the
// failover gate uses between a clean flush and a hard kill. New
// notifications arriving during the wait extend it.
func (r *Replicator) Quiesce() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.queue) > 0 || r.active > 0 {
		r.cond.Wait()
	}
}

// Close stops the workers after the in-flight reconciliations finish;
// queued work is dropped. A closed replicator ignores Track/Notify.
func (r *Replicator) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.queue = nil
	r.queued = make(map[string]bool)
	r.cond.Broadcast()
	r.mu.Unlock()
	close(r.stopc)
	r.wg.Wait()
}

func (r *Replicator) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.cond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		region := r.queue[0]
		r.queue = r.queue[1:]
		reconcile := r.queued[region]
		delete(r.queued, region)
		t := r.targets[region]
		r.active++
		r.mu.Unlock()

		if t != nil {
			var err error
			if reconcile {
				err = r.sync(t)
			} else {
				err = r.shipTail(t, shipSynced, 0, nil)
			}
			if err != nil {
				r.failures.Add(1)
			}
			r.syncs.Add(1)
		}

		r.mu.Lock()
		r.active--
		// Wake Quiesce waiters (and idle workers racing a concurrent
		// enqueue; spurious wakeups re-check the loop condition).
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// sync reconciles every destination directory against one snapshot of
// the primary stack, then ships the tail. A primary file unlinked
// between the snapshot and the copy (a racing compaction) is skipped:
// the compaction latched a fresh notification, so the region
// re-reconciles against the post-compaction stack. The tail generation
// is sampled before the snapshot, so the tail ship can tell whether
// every record a flush removed from the tail is in a copied SSTable
// (see Recovery ordering).
func (r *Replicator) sync(t *target) error {
	var gen uint64
	if t.tail != nil {
		gen = t.tail(math.MaxUint64).Gen
	}
	files, ok := t.files()
	if !ok {
		return nil // in-memory backend: nothing shippable
	}
	var firstErr error
	copied := make(map[string]bool)
	for _, dir := range t.dests() {
		shippedBefore := r.filesShipped.Load()
		shipStart := time.Now()
		complete, err := r.syncDir(dir, files)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		copied[dir] = complete && err == nil
		if r.filesShipped.Load() > shippedBefore {
			r.shipHist.Since(shipStart)
		}
	}
	if err := r.shipTail(t, shipReconcile, gen, copied); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// shipTail brings every replica directory's tail file up to the
// region's synced WAL tail. Worker ships, floor ships and reconciles all
// land here; t.ts.mu serializes them, and the lag counter is zeroed
// under it *before* the tail is read, so every record the counter
// credited is in the ship that cleared it.
//
// A directory with a cursor gets the records after it appended. One
// without (first ship, failed append) is rewritten with the records it
// already holds plus the whole current tail. A reconcile (kind
// shipReconcile) passes the tail generation it sampled before its stack
// snapshot and the directories that snapshot fully reached: a file there
// holding more records than the newest versions of the tail — flushed
// records, or versions a newer one shadows — is rewritten to those
// newest versions, provided the generation has not moved since (a newer
// flush's SSTable is not in the directory yet). A reconcile reads the
// whole tail for this; the other ships read only the new records.
//
// Tail bytes are deliberately NOT charged to the background I/O budget:
// the ships are small, and the bounded-lag loss guarantee depends on
// them shipping even while the budget is drained by a write burst — the
// exact moment the guarantee matters most.
func (r *Replicator) shipTail(t *target, kind shipKind, stackGen uint64, copied map[string]bool) error {
	if t.tail == nil {
		return nil
	}
	ts := t.ts
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r.mu.Lock()
	t.lag = 0
	r.mu.Unlock()

	dests := t.dests()
	live := make(map[string]bool, len(dests))
	for _, dir := range dests {
		live[dir] = true
	}
	for dir := range ts.cursors {
		if !live[dir] {
			delete(ts.cursors, dir)
		}
	}
	// The whole tail, read at most once and only for rewrites.
	var whole *durable.TailChunk
	wholeTail := func() durable.TailChunk {
		if whole == nil {
			c := t.tail(0)
			whole = &c
		}
		return *whole
	}
	var newest []kv.Entry
	newestTail := func() []kv.Entry {
		if newest == nil {
			newest = newestVersions(wholeTail().Entries)
		}
		return newest
	}

	var firstErr error
	for _, dir := range dests {
		path := durable.TailFilePath(dir)
		cur, known := ts.cursors[dir]
		start := time.Now()
		var n int64
		var frames int
		var err error
		switch {
		case kind == shipReconcile && copied[dir] && wholeTail().Gen == stackGen &&
			(!known || cur.frames > len(newestTail())):
			// Shrink: every record the tail dropped before the stack
			// snapshot is in an SSTable this reconcile put in dir.
			kept := newestTail()
			n, err = rewriteTail(dir, path, kept)
			frames = len(kept)
			if err == nil {
				ts.cursors[dir] = tailCursor{seq: wholeTail().Last, frames: frames}
			}
		case known:
			c := t.tail(cur.seq)
			if len(c.Entries) == 0 {
				continue
			}
			n, err = appendTail(path, c.Entries, false)
			frames = len(c.Entries)
			if err == nil {
				ts.cursors[dir] = tailCursor{seq: c.Last, frames: cur.frames + frames}
				break
			}
			// The append may have left a torn frame: the file is
			// rewritten before anything else goes into it.
			delete(ts.cursors, dir)
			fallthrough
		default:
			c := wholeTail()
			n, frames, err = mergeTail(dir, path, c.Entries)
			if err == nil {
				ts.cursors[dir] = tailCursor{seq: c.Last, frames: frames}
			}
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if n > 0 {
			r.tailHist.Since(start)
			r.tailShips.Add(1)
			r.tailBytes.Add(n)
			r.tailFrames.Add(int64(frames))
			if kind == shipFloor {
				r.tailFloorShips.Add(1)
			}
		}
	}
	return firstErr
}

// rewriteTail atomically replaces dir's tail file with entries (an empty
// tail removes it).
func rewriteTail(dir, path string, entries []kv.Entry) (int64, error) {
	if len(entries) > 0 {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
	}
	return durable.WriteTailFile(path, entries, false)
}

// mergeTail atomically rewrites dir's tail file with the intact records
// it already holds plus entries, so the rewrite removes nothing but a
// torn trailing frame and shadowed versions (see newestVersions). It
// returns the bytes and records written.
func mergeTail(dir, path string, entries []kv.Entry) (int64, int, error) {
	old, _, err := durable.ReadTailFile(path)
	if err != nil {
		return 0, 0, err
	}
	merged := newestVersions(append(old, entries...))
	n, err := rewriteTail(dir, path, merged)
	return n, len(merged), err
}

// newestVersions returns the newest version of each key in entries, in
// ascending timestamp order (the order replay applies them in). A
// rewrite drops the older versions: a tail file is replayed only to
// rebuild the store's current contents, where the newest version
// shadows them.
func newestVersions(entries []kv.Entry) []kv.Entry {
	newest := make(map[string]int, len(entries))
	for i, e := range entries {
		if j, ok := newest[e.Key]; !ok || e.Timestamp > entries[j].Timestamp {
			newest[e.Key] = i
		}
	}
	out := make([]kv.Entry, 0, len(newest))
	for i, e := range entries {
		if newest[e.Key] == i {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out
}

// ShipLatency returns the distribution of replica reconcile durations
// that copied at least one SSTable.
func (r *Replicator) ShipLatency() obs.Snapshot { return r.shipHist.Snapshot() }

// TailShipLatency returns the distribution of WAL-tail ship durations.
func (r *Replicator) TailShipLatency() obs.Snapshot { return r.tailHist.Snapshot() }

// syncDir makes dir hold exactly the snapshot's SSTables (modulo files
// newer than the snapshot, which a pending notification owns). complete
// reports that every snapshot file is now in dir: false when one was
// compacted away before it could be copied.
func (r *Replicator) syncDir(dir string, files []kv.ExportedFile) (complete bool, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	have, _, err := listSSTables(dir)
	if err != nil {
		return false, err
	}
	complete = true
	want := make(map[uint64]bool, len(files))
	var maxWant uint64
	var firstErr error
	for _, f := range files {
		want[f.ID] = true
		if f.ID > maxWant {
			maxWant = f.ID
		}
		if have[f.ID] {
			continue
		}
		n, err := CopyFile(f.Path, filepath.Join(dir, filepath.Base(f.Path)))
		if err != nil {
			if os.IsNotExist(err) {
				// Compacted away mid-ship; the splice queued a fresh
				// notification that will ship its replacement.
				complete = false
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if r.cfg.Budget != nil {
			r.cfg.Budget.WaitBackground(int(n))
		}
		r.filesShipped.Add(1)
		r.bytesShipped.Add(n)
	}
	// Retire replica files the primary no longer has — but only those
	// older than the snapshot's newest file: an ID above maxWant means
	// the snapshot is stale (a flush landed after it), and that file's
	// own notification is still queued.
	for id := range have {
		if want[id] || id > maxWant {
			continue
		}
		if err := os.Remove(filepath.Join(dir, durable.SSTableFileName(id))); err != nil && !os.IsNotExist(err) {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.filesRetired.Add(1)
	}
	if err := syncDirEntry(dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return complete, firstErr
}

// listSSTables enumerates the SSTable IDs already present in dir,
// removing stale SSTable temp files (the debris of a copy killed
// mid-ship). Other temp files are left alone: a concurrent tail ship's
// wal-tail.log.tmp is about to be renamed into place.
func listSSTables(dir string) (map[uint64]bool, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	have := make(map[uint64]bool)
	var max uint64
	for _, e := range entries {
		name := e.Name()
		if base, ok := strings.CutSuffix(name, ".tmp"); ok {
			if _, sst := durable.ParseSSTableFileName(base); sst {
				_ = os.Remove(filepath.Join(dir, name))
			}
			continue
		}
		id, ok := durable.ParseSSTableFileName(name)
		if !ok {
			continue
		}
		have[id] = true
		if id > max {
			max = id
		}
	}
	return have, max, nil
}

// ListSSTables returns the SSTable IDs present in a replica or snapshot
// directory, sorted — the recovery and restore paths use it to pick the
// files to copy back into a fresh region directory. A missing directory
// is an empty replica, not an error.
func ListSSTables(dir string) ([]uint64, error) {
	have, _, err := listSSTables(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	ids := make([]uint64, 0, len(have))
	for id := range have {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// SSTablePath returns the path SSTable id occupies inside a replica or
// snapshot directory.
func SSTablePath(dir string, id uint64) string {
	return filepath.Join(dir, durable.SSTableFileName(id))
}

// CopyFile copies src to dst crash-consistently: the bytes land in a
// temp file that is fsynced and renamed into place, then the directory
// is fsynced — a crash at any point leaves either no visible file or a
// complete one, never a torn copy. It returns the bytes copied.
func CopyFile(src, dst string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	tmp := dst + ".tmp"
	out, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	n, err := out.ReadFrom(in)
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return n, err
	}
	if err := os.Rename(tmp, dst); err != nil {
		_ = os.Remove(tmp)
		return n, err
	}
	return n, syncDirEntry(filepath.Dir(dst))
}

// syncDirEntry fsyncs a directory so renames and removals in it are
// durable.
func syncDirEntry(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats is a snapshot of a replicator's activity.
type Stats struct {
	// QueueDepth is the number of regions awaiting reconciliation.
	QueueDepth int
	// Active is the number of in-flight reconciliations.
	Active int
	// FilesShipped / BytesShipped count SSTable copies to replica
	// directories; FilesRetired counts replica files removed after the
	// primary compacted them away.
	FilesShipped int64
	BytesShipped int64
	FilesRetired int64
	// Syncs counts worker rounds (reconciles and the tail ships queued
	// after group-commit rounds); Failures counts rounds, worker or
	// floor, that hit an I/O error (the next round retries).
	Syncs    int64
	Failures int64
	// TailShips / TailBytes / TailFrames count writes to replica
	// directories' WAL-tail files (appends and rewrites), their physical
	// bytes, and the records they carried (a ship with nothing new
	// writes and counts nothing). TailFloorShips counts the subset
	// forced by the bounded-lag floor (K records / T ms) rather than a
	// worker round.
	TailShips      int64
	TailBytes      int64
	TailFrames     int64
	TailFloorShips int64
}

// Add returns the element-wise sum of two snapshots (cluster roll-up).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		QueueDepth:     s.QueueDepth + o.QueueDepth,
		Active:         s.Active + o.Active,
		FilesShipped:   s.FilesShipped + o.FilesShipped,
		BytesShipped:   s.BytesShipped + o.BytesShipped,
		FilesRetired:   s.FilesRetired + o.FilesRetired,
		Syncs:          s.Syncs + o.Syncs,
		Failures:       s.Failures + o.Failures,
		TailShips:      s.TailShips + o.TailShips,
		TailBytes:      s.TailBytes + o.TailBytes,
		TailFrames:     s.TailFrames + o.TailFrames,
		TailFloorShips: s.TailFloorShips + o.TailFloorShips,
	}
}

// Stats snapshots the replicator.
func (r *Replicator) Stats() Stats {
	r.mu.Lock()
	depth, active := len(r.queue), r.active
	r.mu.Unlock()
	return Stats{
		QueueDepth:     depth,
		Active:         active,
		FilesShipped:   r.filesShipped.Load(),
		BytesShipped:   r.bytesShipped.Load(),
		FilesRetired:   r.filesRetired.Load(),
		Syncs:          r.syncs.Load(),
		Failures:       r.failures.Load(),
		TailShips:      r.tailShips.Load(),
		TailBytes:      r.tailBytes.Load(),
		TailFrames:     r.tailFrames.Load(),
		TailFloorShips: r.tailFloorShips.Load(),
	}
}
