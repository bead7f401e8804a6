package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"met/internal/hbase"
	"met/internal/kv"
	"met/internal/sim"
	"met/internal/ycsb"
)

// workload is one seeded, closed-loop traffic mix and the cluster it
// runs against.
type workload struct {
	name       string
	spec       ycsb.Workload
	valueBytes int
	networked  bool                         // metnode processes over rpc.Client
	keys       func(n int64) ycsb.Generator // key-popularity distribution
	config     func(c *hbase.ServerConfig)  // heap and flush policy
	// defect, when set, says why the program fails this workload's
	// correctness check; such a workload runs, exits 1 and is left out
	// of BENCHMARK.json until the program is fixed.
	defect string
}

// workloads are the benchmark's traffic mixes (see DESIGN.md for what
// each loads and bypasses). Those without a defect are the ones
// BENCHMARK.json declares, in this order.
var workloads = []*workload{
	{
		// Cache-resident reads over the network: wire, codec and
		// middleware dominate; the engine Get is a few microseconds.
		name: "rpc-read-hot",
		spec: ycsb.Workload{
			Name: "rpchot", ReadProportion: 0.95, UpdateProportion: 0.05,
			RecordCount: 20000, Partitions: 4,
		},
		valueBytes: 100,
		networked:  true,
		keys:       func(n int64) ycsb.Generator { return ycsb.NewPaperHotspot(n) },
		config:     func(*hbase.ServerConfig) {}, // default 3 GB heap: nothing flushes, all fits in cache
	},
	{
		// Durable inserts beside reads of the loaded rows (YCSB's load
		// phase under reads): group commit, fsync, tail shipping,
		// flushes, compaction and replication all run, and Gets miss
		// the block cache.
		name: "durable-insert",
		spec: ycsb.Workload{
			Name: "durins", ReadProportion: 0.5, InsertProportion: 0.5,
			RecordCount: 80000, Partitions: 4,
		},
		valueBytes: 128,
		keys:       func(n int64) ycsb.Generator { return ycsb.NewUniform(n) },
		config: func(c *hbase.ServerConfig) {
			// 80000 rows x 144 B = 11.5 MB of data, ten times the 3 x
			// 400 KB of block cache; memstores of ~70 KB flush
			// constantly.
			c.HeapBytes = 1 << 20
			// Every insert lands in the last region, whose store grows
			// through the run; leveled compaction merges it in steps
			// instead of rewriting (and holding in memory) all of it
			// each time.
			c.Compaction.Policy = "leveled"
			c.Compaction.MaxStoreFiles = 4
		},
	},
	{
		// Short range scans over data three times the aggregate block
		// cache, with inserts extending the keyspace (YCSB E).
		name: "durable-scan",
		spec: ycsb.Workload{
			Name: "durscan", ScanProportion: 0.95, InsertProportion: 0.05,
			RecordCount: 30000, Partitions: 4, MaxScanLength: 100,
		},
		valueBytes: 256,
		keys:       func(n int64) ycsb.Generator { return ycsb.NewScrambled(n) },
		config: func(c *hbase.ServerConfig) {
			// 30000 rows x 272 B = 8.2 MB of data; 3 x 39% x 2.3 MB =
			// 2.7 MB of block cache, a third of it.
			c.HeapBytes = 2300 << 10
		},
	},
	{
		// Durable updates beside reads: group commit, fsync, tail
		// shipping, flushes, compaction and replication all run.
		name: "durable-update",
		spec: ycsb.Workload{
			Name: "durupd", ReadProportion: 0.5, UpdateProportion: 0.5,
			RecordCount: 20000, Partitions: 4,
		},
		valueBytes: 512,
		keys:       func(n int64) ycsb.Generator { return ycsb.NewScrambled(n) },
		config: func(c *hbase.ServerConfig) {
			c.HeapBytes = 1 << 20 // per-region memstores of ~70 KB flush constantly
			c.Compaction.MaxStoreFiles = 4
		},
		defect: "stale reads: kv.StoreFile.blockFor skips the newest versions of a key " +
			"that straddles a block boundary (see DESIGN.md)",
	},
}

// declared returns the workloads BENCHMARK.json lists.
func declared() []*workload {
	var out []*workload
	for _, w := range workloads {
		if w.defect == "" {
			out = append(out, w)
		}
	}
	return out
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// serverConfig is the durable region-server configuration of the workload.
func (w *workload) serverConfig(dataDir string) hbase.ServerConfig {
	cfg := hbase.DefaultServerConfig()
	cfg.DataDir = dataDir
	w.config(&cfg)
	return cfg
}

// rowBytes is the user payload (key + value) of one row.
func (w *workload) rowBytes() int64 { return int64(len(w.spec.Key(0)) + w.valueBytes) }

// opClass is the kind of a timed operation.
type opClass uint8

const (
	opGet opClass = iota
	opPut
	opInsert
	opScan
	numClasses
)

var classNames = [numClasses]string{"get", "put", "insert", "scan"}

// isRead reports whether the class counts as a read in the read_*
// metrics (point Gets and range Scans; each workload issues one of them).
func (k opClass) isRead() bool { return k == opGet || k == opScan }

// opRecord is one timed op in a traced run: its class, client and the
// four instants separating key generation, the call and the check.
type opRecord struct {
	class  opClass
	client uint8
	t0     int64 // op start (ns since the phase began)
	t1     int64 // inputs generated, call issued
	t2     int64 // call returned
	t3     int64 // result checked
}

// clientResult is what one closed-loop client measured.
type clientResult struct {
	lat        [numClasses][]int64 // call latencies, ns
	done       [numClasses][]int64 // completion instants, ns since the phase began
	attempted  int64
	errors     int64
	violations int64
	firstBad   []string
	userBytes  int64 // key+value bytes of acknowledged writes
	records    []opRecord
}

// phaseResult is one timed phase: every client's samples merged.
type phaseResult struct {
	wall       time.Duration
	lat        [numClasses][]int64
	done       [numClasses][]int64
	completed  int64
	attempted  int64
	errors     int64
	violations int64
	firstBad   []string
	userBytes  int64
	records    []opRecord
}

// maxReported bounds the violation messages kept for the report.
const maxReported = 5

// runPhase drives the cluster with clients closed-loop goroutines from
// start for d, each with its own RNG stream derived from seed.
func runPhase(c *cluster, l *ledger, seed uint64, clients int, start time.Time, d time.Duration, traced bool) *phaseResult {
	results := make([]*clientResult, clients)
	var wg sync.WaitGroup
	deadline := start.Add(d)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id] = runClient(c, l, seed, id, start, deadline, traced)
		}(id)
	}
	wg.Wait()
	out := &phaseResult{wall: time.Since(start)}
	for _, r := range results {
		for k := range r.lat {
			out.lat[k] = append(out.lat[k], r.lat[k]...)
			out.done[k] = append(out.done[k], r.done[k]...)
			out.completed += int64(len(r.lat[k]))
		}
		out.attempted += r.attempted
		out.errors += r.errors
		out.violations += r.violations
		out.userBytes += r.userBytes
		out.records = append(out.records, r.records...)
		for _, m := range r.firstBad {
			if len(out.firstBad) < maxReported {
				out.firstBad = append(out.firstBad, m)
			}
		}
	}
	return out
}

// clientRNG derives client id's stream from the run seed.
func clientRNG(seed uint64, id int) *sim.RNG {
	return sim.NewRNG(seed*0x9e3779b97f4a7c15 + uint64(id+1)*0xbf58476d1ce4e5b9)
}

// runClient is one closed-loop client: it draws an op from the mix,
// issues it, waits for the reply and checks it, until the deadline.
func runClient(c *cluster, l *ledger, seed uint64, id int, start, deadline time.Time, traced bool) *clientResult {
	w := c.w
	rng := clientRNG(seed, id)
	gen := w.keys(w.spec.RecordCount)
	table := w.spec.TableName()
	res := &clientResult{}
	var val []byte
	note := func(err error) {
		res.violations++
		if len(res.firstBad) < maxReported {
			res.firstBad = append(res.firstBad, err.Error())
		}
	}
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return res
		}
		var class opClass
		var i int64
		var seq uint32
		var limit int
		switch w.spec.NextOp(rng) {
		case ycsb.OpRead:
			class, i = opGet, gen.Next(rng)
		case ycsb.OpUpdate:
			class, i = opPut, l.ownedBy(gen.Next(rng), id)
		case ycsb.OpInsert:
			class, i = opInsert, l.claimInsert(id)
		case ycsb.OpScan:
			class, i = opScan, gen.Next(rng)
			limit = 1 + rng.Intn(w.spec.MaxScanLength)
		default:
			panic("perfbench: workload mix has an unsupported op")
		}
		key := w.spec.Key(i)
		switch class {
		case opPut:
			seq = l.beginUpdate(i)
			val = encodeValue(val[:0], key, id, seq, w.valueBytes)
		case opInsert:
			seq = 1
			val = encodeValue(val[:0], key, id, seq, w.valueBytes)
		}
		var lo uint32
		var win scanWindow
		switch class {
		case opGet:
			lo = l.acked[i].Load()
		case opScan:
			win = l.openScan(i, limit)
		}

		res.attempted++
		t1 := time.Now()
		var err error
		var got []byte
		var entries []kv.Entry
		switch class {
		case opGet:
			got, err = c.client.Get(table, key)
		case opPut, opInsert:
			err = c.client.Put(table, key, val)
		case opScan:
			entries, err = c.client.Scan(table, key, "", limit)
		}
		t2 := time.Now()
		if err != nil {
			res.errors++
			if len(res.firstBad) < maxReported {
				res.firstBad = append(res.firstBad, fmt.Sprintf("%s %s: %v", classNames[class], key, err))
			}
			continue
		}
		res.lat[class] = append(res.lat[class], int64(t2.Sub(t1)))
		res.done[class] = append(res.done[class], int64(t2.Sub(start)))
		var bad error
		switch class {
		case opGet:
			bad = l.checkGet(key, i, got, lo)
		case opPut:
			l.ackUpdate(i, seq)
			res.userBytes += w.rowBytes()
		case opInsert:
			l.ackInsert(i)
			res.userBytes += w.rowBytes()
		case opScan:
			bad = l.checkScan(win, entries)
		}
		if bad != nil {
			note(bad)
		}
		if traced {
			t3 := time.Now()
			res.records = append(res.records, opRecord{
				class: class, client: uint8(id),
				t0: int64(t0.Sub(start)), t1: int64(t1.Sub(start)),
				t2: int64(t2.Sub(start)), t3: int64(t3.Sub(start)),
			})
		}
	}
}

// readback re-reads a seeded sample of acknowledged rows after
// replication quiesced; each must hold exactly its last acknowledged
// version. It returns the reads attempted, the violations and the first
// few violation messages.
func readback(c *cluster, l *ledger, seed uint64, n int) (attempted, bad int64, msgs []string) {
	rng := sim.NewRNG(seed ^ 0x5eedbacc)
	table := c.w.spec.TableName()
	inserted := l.ackedInserts()
	for k := 0; k < n; k++ {
		var i int64
		if f := l.insertFrontier(); inserted > 0 && k%4 == 3 && f > l.records {
			i = l.records + rng.Int63n(f-l.records)
		} else {
			i = rng.Int63n(l.records)
		}
		key := c.w.spec.Key(i)
		attempted++
		v, err := c.client.Get(table, key)
		if err == nil {
			err = l.checkReadback(key, i, v)
		} else if errors.Is(err, hbase.ErrNotFound) {
			err = fmt.Errorf("%s: acknowledged row missing after quiesce", key)
		}
		if err != nil {
			bad++
			if len(msgs) < maxReported {
				msgs = append(msgs, "readback "+err.Error())
			}
		}
	}
	return attempted, bad, msgs
}
