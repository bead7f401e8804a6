package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"met/internal/compaction"
	"met/internal/hbase"
	"met/internal/kv"
	"met/internal/obs"
	"met/internal/replication"
)

// notObserved is reported for a per-layer metric the workload's path
// does not expose to the benchmark (a layer it bypasses, or one running
// inside a metnode process that does not export it). It is never a
// measured value, so it cannot be mistaken for "no work done".
const notObserved = -1.0

// serverSnap is every in-process region server's public stats, summed.
type serverSnap struct {
	eng      kv.Stats
	wal      hbase.WALStats
	rep      replication.Stats
	pool     compaction.PoolStats
	get, put obs.Snapshot
	scan     obs.Snapshot
	fsync    obs.Snapshot
	flush    obs.Snapshot
	ship     obs.Snapshot
	tail     obs.Snapshot
	locality float64 // lowest server locality
}

func snapServers(m *hbase.Master) serverSnap {
	s := serverSnap{locality: math.Inf(1)}
	for _, rs := range m.Servers() {
		s.eng = s.eng.Add(rs.EngineStats())
		w := rs.WALStats()
		s.wal.Appends += w.Appends
		s.wal.SyncRounds += w.SyncRounds
		s.wal.Bytes += w.Bytes
		s.rep = s.rep.Add(rs.ReplicationStats())
		s.pool = s.pool.Add(rs.CompactionStats())
		ls := rs.LatencyStats()
		s.get.Merge(ls.Get)
		s.put.Merge(ls.Put)
		s.scan.Merge(ls.Scan)
		s.fsync.Merge(ls.Fsync)
		s.flush.Merge(ls.Flush)
		s.ship.Merge(ls.ReplicationShip)
		s.tail.Merge(ls.TailShip)
		s.locality = min(s.locality, rs.Locality())
	}
	return s
}

// meanDelta is the mean of the observations a histogram gained between
// two snapshots (sums and counts are exact), in microseconds; -1 when
// it gained none.
func meanDelta(after, before obs.Snapshot) float64 {
	return ratio(float64(after.Sum()-before.Sum())/1e3, float64(after.Count()-before.Count()))
}

// usage is the CPU and storage writes of the benchmark process and
// every cluster process.
type usage struct {
	selfCPU    time.Duration
	childTicks int64
	writeBytes int64 // cluster processes: children when networked, else this one
	mallocs    runtime.MemStats
}

// readUsage samples the processes. An unreadable counter fails the run.
func readUsage(pids []int) (usage, error) {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u, fmt.Errorf("getrusage: %w", err)
	}
	u.selfCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	self, err := readProc(os.Getpid())
	if err != nil {
		return u, err
	}
	if len(pids) == 0 {
		u.writeBytes = self.writeBytes
	}
	for _, pid := range pids {
		p, err := readProc(pid)
		if err != nil {
			return u, err
		}
		u.childTicks += p.cpuTicks
		u.writeBytes += p.writeBytes
	}
	runtime.ReadMemStats(&u.mallocs)
	return u, nil
}

// engineRef is the in-process engine cost of the networked workload's
// ops on the same data, timed during set-up before the cluster restarts
// as processes: the metnode workers export their handler latency but
// not the engine's, so the middleware share is handler minus this.
type engineRef struct {
	getUs, putUs float64
}

// engineRefOps is how many Gets (and a tenth as many Puts) the
// reference times.
const engineRefOps = 2000

func (e *engineRef) measure(c *cluster) error {
	w := c.w
	table := w.spec.TableName()
	t, err := c.master.Table(table)
	if err != nil {
		return err
	}
	serverOf := func(key string) (*hbase.RegionServer, error) {
		host, ok := c.master.HostOf(t.RegionFor(key).Name())
		if !ok {
			return nil, fmt.Errorf("engine reference: %s unassigned", key)
		}
		return c.master.Server(host)
	}
	step := w.spec.RecordCount / engineRefOps
	var getNs, putNs time.Duration
	for pass := 0; pass < 2; pass++ { // the first pass warms the cache
		getNs = 0
		for n := int64(0); n < engineRefOps; n++ {
			key := w.spec.Key(n * step)
			rs, err := serverOf(key)
			if err != nil {
				return err
			}
			start := time.Now()
			v, err := rs.Get(table, key)
			getNs += time.Since(start)
			if err != nil {
				return fmt.Errorf("engine reference get %s: %w", key, err)
			}
			if _, err := decodeValue(v); err != nil {
				return fmt.Errorf("engine reference get %s: %w", key, err)
			}
		}
	}
	for n := int64(0); n < engineRefOps/10; n++ {
		key := w.spec.Key(n * step * 10)
		rs, err := serverOf(key)
		if err != nil {
			return err
		}
		// Rewriting the loaded value leaves the data as loaded.
		val := encodeValue(nil, key, loaderClient, 0, w.valueBytes)
		start := time.Now()
		err = rs.Put(table, key, val)
		putNs += time.Since(start)
		if err != nil {
			return fmt.Errorf("engine reference put %s: %w", key, err)
		}
	}
	e.getUs = float64(getNs.Microseconds()) / engineRefOps
	e.putUs = float64(putNs.Microseconds()) / (engineRefOps / 10)
	return c.flushAll()
}

// stageNames maps the engine's span names to per-layer metric names;
// unlisted stages (bloom-negative, flush, snapshot) sum into "other".
var stageNames = map[string]string{
	"route":        "stage.route_us_mean",
	"memstore":     "stage.memstore_us_mean",
	"block-cache":  "stage.block_cache_us_mean",
	"sstable-read": "stage.sstable_read_us_mean",
	"iterate":      "stage.iterate_us_mean",
	"wal-append":   "stage.wal_append_us_mean",
	"wal-sync":     "stage.wal_sync_us_mean",
}

// stageMetrics splits the sampled server ops' time by stage: each
// stage's total over the sample divided by the ops in it, plus what no
// span covers.
func stageMetrics(ops []obs.SlowOp, m map[string]float64) {
	for _, name := range stageNames {
		m[name] = 0
	}
	m["stage.other_us_mean"] = 0
	m["stage.unaccounted_us_mean"] = 0
	m["stage.sampled_ops"] = float64(len(ops))
	if len(ops) == 0 {
		return
	}
	n := float64(len(ops))
	for _, o := range ops {
		covered := time.Duration(0)
		for _, s := range o.Spans {
			name, ok := stageNames[s.Stage]
			if !ok {
				name = "stage.other_us_mean"
			}
			m[name] += float64(s.Dur) / 1e3 / n
			covered += s.Dur
		}
		m["stage.unaccounted_us_mean"] += float64(o.Total-covered) / 1e3 / n
	}
}

// serverOps drains every in-process server's slow-op ring, keeping the
// ops that started inside [from, to].
func serverOps(m *hbase.Master, from, to time.Time) []obs.SlowOp {
	var out []obs.SlowOp
	for _, rs := range m.Servers() {
		for _, o := range rs.SlowOps() {
			if !o.Time.Before(from) && !o.Time.After(to) {
				out = append(out, o)
			}
		}
	}
	slices.SortFunc(out, func(a, b obs.SlowOp) int { return a.Time.Compare(b.Time) })
	return out
}

// layerMetrics adds every per-layer metric of a traced phase to rep.
// Each is computed from the phase's op records, the public stats diffed
// across the phase, /proc, or the engine's stage spans; a layer the
// workload's path does not expose reads notObserved.
func layerMetrics(rep *report, w *workload, setup setupTimes, plain, m *measured, ref *engineRef, ops []obs.SlowOp) {
	ph := m.ph
	n := float64(ph.completed)
	out := map[string]float64{}
	notes := map[string]string{}

	plainTput, tracedTput := plain.cleanThroughput(), m.cleanThroughput()
	out["trace.overhead_frac"] = 1 - tracedTput/plainTput
	notes["trace.overhead_frac"] = fmt.Sprintf("untraced %.0f ops/s, traced %.0f ops/s, least-stolen of each 3 windows",
		plainTput, tracedTput)

	// Set-up phases of the traced cluster.
	out["setup.boot_s"] = setup.boot
	out["setup.load_s"] = setup.load
	out["setup.flush_s"] = setup.flush
	out["setup.spawn_s"] = setup.spawn
	out["setup.warm_s"] = setup.warm

	// The harness itself and the client calls, from the op records.
	var gen, check float64
	var callSum, callN [numClasses]float64
	for _, r := range ph.records {
		gen += float64(r.t1 - r.t0)
		check += float64(r.t3 - r.t2)
		callSum[r.class] += float64(r.t2-r.t1) / 1e3
		callN[r.class]++
	}
	out["ycsb.gen_ns_per_op"] = ratio(gen, float64(len(ph.records)))
	out["check.ns_per_op"] = ratio(check, float64(len(ph.records)))
	clientMean := func(k opClass) float64 { return ratio(callSum[k], callN[k]) }

	// Processes.
	out["proc.client_cpu_us_per_op"] = float64((m.after.selfCPU - m.before.selfCPU).Microseconds()) / n
	out["proc.server_cpu_us_per_op"] = notObserved
	if w.networked {
		ticks := m.after.childTicks - m.before.childTicks
		out["proc.server_cpu_us_per_op"] = float64(ticks) * 1e6 / clockTicks / n
	}
	out["proc.alloc_bytes_per_op"] = float64(m.after.mallocs.TotalAlloc-m.before.mallocs.TotalAlloc) / n
	out["proc.gc_cycles_per_kop"] = float64(m.after.mallocs.NumGC-m.before.mallocs.NumGC) * 1000 / n

	if w.networked {
		d := m.pAfter.sub(m.pBefore)
		handler := func(op string) float64 {
			sum := d[`rpc_op_latency_seconds_sum{op="/node/`+op+`"}`]
			cnt := d[`rpc_op_latency_seconds_count{op="/node/`+op+`"}`]
			return ratio(sum*1e6, cnt)
		}
		for _, op := range []struct {
			name string
			k    opClass
			ref  float64
		}{{"get", opGet, ref.getUs}, {"put", opPut, ref.putUs}} {
			cl, h := clientMean(op.k), handler(op.name)
			out["rpc."+op.name+"_client_us_mean"] = cl
			out["rpc."+op.name+"_handler_us_mean"] = h
			out["rpc."+op.name+"_wire_us_mean"] = cl - h
			out["rpc."+op.name+"_middleware_us_mean"] = h - op.ref
			out["rpc.engine_"+op.name+"_ref_us_mean"] = op.ref
		}
		notes["rpc.get_middleware_us_mean"] = "handler minus the in-process engine reference timed at set-up"
		notes["rpc.put_middleware_us_mean"] = notes["rpc.get_middleware_us_mean"]
		out["replication.tail_floor_ships"] = d["met_tail_floor_ships_total"]
	} else {
		a, b := m.sAfter, m.sBefore
		out["hbase.get_us_mean"] = meanDelta(a.get, b.get)
		out["hbase.put_us_mean"] = meanDelta(a.put, b.put)
		out["hbase.scan_us_mean"] = meanDelta(a.scan, b.scan)
		pointClient := callSum[opGet] + callSum[opPut] + callSum[opInsert]
		pointServer := float64(a.get.Sum()-b.get.Sum()+a.put.Sum()-b.put.Sum()) / 1e3
		out["hbase.route_us_mean"] = ratio(pointClient-pointServer, callN[opGet]+callN[opPut]+callN[opInsert])
		out["hbase.regions_per_scan"] = ratio(float64(a.scan.Count()-b.scan.Count()), callN[opScan])
		out["hdfs.locality_min"] = a.locality

		e := a.eng
		eb := b.eng
		gets, scans := float64(e.Gets-eb.Gets), float64(e.Scans-eb.Scans)
		blocks := float64(e.BlocksRead - eb.BlocksRead)
		out["kv.cache_hit_ratio"] = ratio(float64(e.CacheHits-eb.CacheHits), float64(e.CacheHits-eb.CacheHits+e.CacheMisses-eb.CacheMisses))
		if scans == 0 {
			out["kv.blocks_read_per_get"] = ratio(blocks, gets)
		}
		if gets == 0 {
			out["kv.blocks_read_per_scan"] = ratio(blocks, scans)
		}
		out["kv.entries_per_scan"] = ratio(float64(e.ScannedEntries-eb.ScannedEntries), scans)
		out["kv.flushes"] = float64(e.Flushes - eb.Flushes)
		out["kv.flush_ms_mean"] = meanDelta(a.flush, b.flush) / 1e3
		if a.flush.Count() == b.flush.Count() {
			out["kv.flush_ms_mean"] = notObserved
		}
		out["kv.stall_ms"] = float64(e.StallNanos-eb.StallNanos) / 1e6
		out["kv.stalled_writes"] = float64(e.StalledWrites - eb.StalledWrites)
		out["kv.engine_write_amp"] = ratio(float64(e.FlushedBytes-eb.FlushedBytes+e.CompactionBytesWritten-eb.CompactionBytesWritten),
			float64(e.UserBytes-eb.UserBytes))

		appends := float64(a.wal.Appends - b.wal.Appends)
		out["durable.wal_appends"] = appends
		out["durable.writes_per_fsync"] = ratio(appends, float64(a.wal.SyncRounds-b.wal.SyncRounds))
		out["durable.fsync_us_p50"] = lifetimePercentile(a.fsync, 0.50)
		out["durable.fsync_us_p99"] = lifetimePercentile(a.fsync, 0.99)
		out["durable.wal_bytes_per_put"] = ratio(float64(a.wal.Bytes-b.wal.Bytes), callN[opPut]+callN[opInsert])
		notes["durable.fsync_us_p50"] = "over the measured cluster's life (load and timed phase)"
		notes["durable.fsync_us_p99"] = notes["durable.fsync_us_p50"]

		p, pb := a.pool, b.pool
		out["compaction.count"] = float64(p.Compactions - pb.Compactions)
		out["compaction.bytes_in"] = float64(p.BytesIn - pb.BytesIn)
		out["compaction.bytes_out"] = float64(p.BytesOut - pb.BytesOut)
		out["compaction.ms_total"] = float64(p.CompactionNanos-pb.CompactionNanos) / 1e6
		out["compaction.budget_wait_ms"] = float64(p.Budget.WaitNanos-pb.Budget.WaitNanos) / 1e6
		out["compaction.conflicts"] = float64(p.Conflicts - pb.Conflicts)
		out["compaction.failures"] = float64(p.Failures - pb.Failures)

		r, rb := a.rep, b.rep
		out["replication.files_shipped"] = float64(r.FilesShipped - rb.FilesShipped)
		out["replication.bytes_shipped"] = float64(r.BytesShipped - rb.BytesShipped)
		out["replication.ship_ms_mean"] = meanDelta(a.ship, b.ship) / 1e3
		if a.ship.Count() == b.ship.Count() {
			out["replication.ship_ms_mean"] = notObserved
		}
		out["replication.tail_ships"] = float64(r.TailShips - rb.TailShips)
		out["replication.tail_bytes_per_ship"] = ratio(float64(r.TailBytes-rb.TailBytes), float64(r.TailShips-rb.TailShips))
		out["replication.tail_ship_us_p50"] = lifetimePercentile(a.tail, 0.50)
		out["replication.tail_ship_us_p99"] = lifetimePercentile(a.tail, 0.99)
		out["replication.failed_round_ratio"] = ratio(float64(r.Failures-rb.Failures), float64(r.Syncs-rb.Syncs))
		out["replication.tail_floor_ships"] = float64(r.TailFloorShips - rb.TailFloorShips)
		notes["replication.tail_ship_us_p50"] = notes["durable.fsync_us_p50"]
		notes["replication.tail_ship_us_p99"] = notes["durable.fsync_us_p50"]

		stageMetrics(ops, out)
	}

	for _, d := range perLayer {
		v, ok := out[d.name]
		if !ok {
			v = notObserved
		}
		delete(out, d.name)
		note := notes[d.name]
		if v == notObserved {
			note = "not observed on this workload's path"
		}
		rep.add(d.name, v, d.unit, note)
	}
	for k := range out {
		panic("perfbench: per-layer metric " + k + " is not declared in perLayer")
	}
}

// lifetimePercentile reads a percentile of a cumulative histogram in
// microseconds; -1 when it recorded nothing.
func lifetimePercentile(s obs.Snapshot, q float64) float64 {
	if s.Count() == 0 {
		return notObserved
	}
	return float64(s.Percentile(q)) / 1e3
}
