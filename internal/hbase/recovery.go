package hbase

// Server failover: reopening a dead server's regions from the replica
// SSTables its followers hold (met/internal/replication), with the data
// loss — acknowledged writes that never reached a replica — measured
// and reported, never silent. See catalog.go for the commit ordering.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"met/internal/durable"
	"met/internal/replication"
)

// ErrServerStillRunning is returned by RecoverServer for a server that
// has not been stopped: failover is for dead servers, and recovering a
// live one would fork its regions.
var ErrServerStillRunning = errors.New("hbase: refusing to recover a running server; stop it first")

// RegionRecovery describes one region's failover.
type RegionRecovery struct {
	// Region and NewRegion are the dead region's name and the
	// generation-suffixed name it was recovered under.
	Region    string
	NewRegion string
	// Source is the follower whose replica directory the region was
	// reopened from (it also hosts the recovered region).
	Source string
	// ReplicaFiles is how many SSTables the replica held.
	ReplicaFiles int
	// TailWrites is how many durable-but-unflushed records were replayed
	// from the replica's shipped WAL tail (wal-tail.log) — the writes
	// that sat in the dead server's memstore yet still survive because
	// tail streaming shipped them after their commit fsync.
	TailWrites int
	// TailTorn reports that the shipped tail frame stream ended in a
	// torn frame — a ship appending to it was cut short by the crash;
	// the intact prefix was still replayed.
	TailTorn bool
	// LostWrites counts the acknowledged mutations the replica did not
	// cover — after the tail replay, only the unsynced in-flight window.
	// Store timestamps are minted densely (one per mutation), so the
	// dead store's clock minus the recovered store's clock is exactly
	// that count.
	LostWrites int64
}

// RecoveryReport is RecoverServer's accounting: what was recovered from
// where, and precisely how much was lost. A zero LostWrites means every
// acknowledged write survived the server's death.
type RecoveryReport struct {
	Server     string
	Regions    []RegionRecovery
	LostWrites int64
}

// RecoverServer fails over a dead server: every region it hosted is
// reopened on the follower holding its replica SSTables — from the
// copies alone, never the dead server's own region directories — and
// reassigned there, with one table-row commit per region (a crash
// mid-recovery cold-starts the partially recovered layout, and
// RecoverServer can be re-run). The dead server's membership row is
// dropped last, its directories are reclaimed, and regions elsewhere
// that replicated onto it get fresh followers.
//
// The caller must have stopped the server (HardStop, Shutdown, or a
// real process kill); recovering a live server is refused. The returned
// report counts, per region, the acknowledged writes the replica did
// not cover — with replication caught up after a clean flush that count
// is zero; otherwise it is the unreplicated memstore, reported rather
// than silently dropped. The dead store objects are consulted only for
// that in-memory accounting (their logical clocks); region data comes
// exclusively from the replica copies.
func (m *Master) RecoverServer(name string) (*RecoveryReport, error) {
	rs, err := m.Server(name)
	if err != nil {
		return nil, err
	}
	if rs.Running() {
		return nil, fmt.Errorf("%w (%s)", ErrServerStillRunning, name)
	}
	if rs.Config().DataDir == "" {
		return nil, fmt.Errorf("hbase: recover %s: no durable data directory, nothing replicated", name)
	}
	m.mu.Lock()
	delete(m.servers, name)
	nLive := len(m.servers)
	m.mu.Unlock()
	if nLive == 0 {
		m.mu.Lock()
		m.servers[name] = rs
		m.mu.Unlock()
		return nil, ErrNoServers
	}
	m.namenode.RemoveDatanode(name)

	// One generation for the whole recovery, persisted before any new
	// directory exists (the split/restore discipline: a replayed
	// recovery can never mint colliding names).
	m.mu.Lock()
	m.splitSeq++
	gen := m.splitSeq
	m.mu.Unlock()
	if err := m.commitCluster(); err != nil {
		// Nothing recovered yet: restore membership so the caller can
		// retry instead of stranding regions on a vanished server.
		m.mu.Lock()
		m.servers[name] = rs
		m.mu.Unlock()
		return nil, err
	}

	report := &RecoveryReport{Server: name}
	regions := rs.Regions()
	sort.Slice(regions, func(i, j int) bool { return regions[i].Name() < regions[j].Name() })
	var errs []error
	for _, r := range regions {
		rec, err := m.recoverRegion(rs, r, gen)
		if err != nil {
			errs = append(errs, fmt.Errorf("hbase: recover %s region %s: %w", name, r.Name(), err))
			continue
		}
		report.Regions = append(report.Regions, rec)
		report.LostWrites += rec.LostWrites
		m.crash("recoverserver.region-recovered")
	}
	if len(errs) > 0 {
		// Partial recovery: the committed regions are safely failed
		// over; the server stays a member so a re-run can finish.
		m.mu.Lock()
		m.servers[name] = rs
		m.mu.Unlock()
		return report, errors.Join(errs...)
	}
	m.crash("recoverserver.reassigned")
	if err := m.dropServer(name); err != nil {
		return report, err
	}
	// The dead server's shared WAL is no longer referenced by anything:
	// every region it logged for was either recovered (from the replica
	// copies and shipped tail, never this directory) or lost and
	// reported. Reclaim it like the region directories.
	_ = os.RemoveAll(serverWALDir(rs.Config().DataDir, name))
	if err := m.refreshFollowersAfterLoss(name); err != nil {
		return report, err
	}
	return report, nil
}

// recoverRegion fails over one region onto the follower holding its
// replica copy. The new region directory is seeded exclusively from the
// replica SSTables; the dead primary directory is never read (it stands
// in for a lost disk) and is reclaimed after the commit.
func (m *Master) recoverRegion(dead *RegionServer, r *Region, gen int64) (RegionRecovery, error) {
	rec := RegionRecovery{Region: r.Name()}
	deadStore := r.Store()
	deadTS := deadStore.MaxTimestamp()

	dst, replicaSrc := m.pickRecoverySource(dead, r)
	if dst == nil {
		return rec, fmt.Errorf("no live server to recover onto")
	}
	rec.Source = dst.Name()
	newName := fmt.Sprintf("%s.%d", r.Name(), gen)
	rec.NewRegion = newName
	newDir := regionDataDir(dst.Config().DataDir, newName)
	if err := os.MkdirAll(newDir, 0o755); err != nil {
		return rec, err
	}
	if replicaSrc != "" {
		ids, err := replication.ListSSTables(replicaSrc)
		if err != nil {
			return rec, err
		}
		for _, id := range ids {
			src := replication.SSTablePath(replicaSrc, id)
			if _, err := replication.CopyFile(src, filepath.Join(newDir, filepath.Base(src))); err != nil {
				return rec, err
			}
		}
		rec.ReplicaFiles = len(ids)
	}
	nr, err := newRegionNamed(newName, r.Table(), r.StartKey(), r.EndKey(),
		dst.storeConfigFor(newName, dst.NumRegions()+1))
	if err != nil {
		return rec, err
	}
	discard := func() {
		st := nr.Store()
		h, _ := st.WAL().(*durable.RegionLog)
		st.Close()
		if h != nil {
			_ = h.Owner().Drop(h.Name())
		}
		_ = os.RemoveAll(newDir)
	}
	if replicaSrc != "" {
		// Replay the shipped WAL tail over the replica SSTables: the
		// records the dead server's memstore held but tail streaming had
		// already made follower-durable. Records the files already cover
		// are skipped (a flush racing the last ship duplicates them);
		// a torn trailing frame yields the intact prefix.
		tail, torn, err := durable.ReadTailFile(durable.TailFilePath(replicaSrc))
		if err != nil {
			discard()
			return rec, fmt.Errorf("read replica tail: %w", err)
		}
		rec.TailTorn = torn
		if len(tail) > 0 {
			applied, err := nr.Store().ApplyReplayed(tail)
			if err != nil {
				discard()
				return rec, fmt.Errorf("replay replica tail: %w", err)
			}
			rec.TailWrites = applied
		}
		// The replayed tail is in the new store (durably, through the
		// destination's shared WAL) but the table row is not yet
		// committed: a crash here cold-starts the old layout and a
		// re-run replays the tail again, idempotently.
		m.crash("recoverserver.tail-replayed")
	}
	rec.LostWrites = int64(deadTS) - int64(nr.Store().MaxTimestamp())
	if rec.LostWrites < 0 {
		rec.LostWrites = 0
	}
	nr.SetFollowers(m.pickFollowers(dst.Name()))

	// Publish: table metadata, assignment, serving, then the durable
	// commit. A crash before the commit cold-starts the region on the
	// (revived) dead member from its untouched primary directory; after
	// it, the recovered region is authoritative.
	t, err := m.Table(r.Table())
	if err != nil {
		discard()
		return rec, err
	}
	t.swapRegion(r, nr)
	m.mu.Lock()
	delete(m.assignment, r.Name())
	m.assignment[newName] = dst.Name()
	m.mu.Unlock()
	dst.OpenRegion(nr)
	dst.mirrorSync(nr)
	for _, f := range r.Files() {
		_ = m.namenode.DeleteFile(f)
	}
	if err := m.commitTableOf(r.Table()); err != nil {
		return rec, err
	}

	// Committed: drop the region from the dead server's in-memory
	// topology so a re-run after a partial failure never re-recovers
	// it (which would seed an empty duplicate from the deleted
	// replicas). The dead store's handles are released (accounting is
	// done) and the superseded directories — dead primary, consumed
	// replicas — are reclaimed; the catalog no longer references them.
	dead.CloseRegion(r.Name())
	deadStore.Close()
	_ = os.RemoveAll(regionDataDir(dead.Config().DataDir, r.Name()))
	for _, f := range r.Followers() {
		_ = os.RemoveAll(replicaDir(dead.Config().DataDir, f, r.Name()))
	}
	return rec, nil
}

// pickRecoverySource chooses where to recover a region: the live
// follower whose replica covers the highest timestamp — the max over
// its SSTables' clocks and the last record of its shipped WAL tail —
// so the replay loses the least (file count breaks ties: a replica
// that kept more un-compacted history restores more evenly; remaining
// ties go to the first by follower order). When no follower survives
// or none ever received a copy, any live server starts the region
// empty (the loss is then the whole region, and it is reported).
// Replica directories are resolved under the dead primary's DataDir —
// the same convention the shipper wrote them with — so heterogeneous
// per-server DataDirs find the copies where they actually are.
func (m *Master) pickRecoverySource(dead *RegionServer, r *Region) (*RegionServer, string) {
	var best *RegionServer
	bestDir := ""
	bestFiles := -1
	var bestCovered uint64
	for _, f := range r.Followers() {
		rs, err := m.Server(f)
		if err != nil {
			continue
		}
		dir := replicaDir(dead.Config().DataDir, f, r.Name())
		ids, err := replication.ListSSTables(dir)
		if err != nil {
			continue
		}
		covered := replicaCoveredTS(dir, ids)
		if best == nil || covered > bestCovered ||
			(covered == bestCovered && len(ids) > bestFiles) {
			best, bestDir, bestFiles, bestCovered = rs, dir, len(ids), covered
		}
	}
	if best != nil {
		return best, bestDir
	}
	// No surviving replica: least-loaded live server, empty start.
	servers := m.Servers()
	if len(servers) == 0 {
		return nil, ""
	}
	sort.Slice(servers, func(i, j int) bool {
		if servers[i].NumRegions() != servers[j].NumRegions() {
			return servers[i].NumRegions() < servers[j].NumRegions()
		}
		return servers[i].Name() < servers[j].Name()
	})
	return servers[0], ""
}

// replicaCoveredTS is the highest timestamp a replica directory can
// restore: the max SSTable clock across its shipped files, raised by
// the newest record of its shipped WAL tail. Unreadable files count as
// zero — a corrupt replica simply loses the election to a better one.
func replicaCoveredTS(dir string, ids []uint64) uint64 {
	var covered uint64
	for _, id := range ids {
		if ts, err := durable.SSTableMaxTimestamp(replication.SSTablePath(dir, id)); err == nil && ts > covered {
			covered = ts
		}
	}
	if tail, _, err := durable.ReadTailFile(durable.TailFilePath(dir)); err == nil {
		for _, e := range tail {
			if e.Timestamp > covered {
				covered = e.Timestamp
			}
		}
	}
	return covered
}

// QuiesceReplication blocks until every server's replicator has shipped
// its pending work — the cluster-wide barrier between "cleanly flushed"
// and "safe to lose any single server".
func (m *Master) QuiesceReplication() {
	for _, rs := range m.Servers() {
		rs.QuiesceReplication()
	}
}
