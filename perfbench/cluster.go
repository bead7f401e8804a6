package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"met"
	"met/internal/hbase"
	"met/internal/kv"
	"met/internal/rpc"
)

// store is the data API both clients under test expose: hbase.Client
// in-process and rpc.Client over the network.
type store interface {
	Get(table, key string) ([]byte, error)
	Put(table, key string, value []byte) error
	Scan(table, start, end string, limit int) ([]kv.Entry, error)
}

// setupTimes are the set-up phases, in seconds; they sum to setup_s.
type setupTimes struct {
	boot, load, flush, spawn, warm float64
}

func (s setupTimes) total() float64 { return s.boot + s.load + s.flush + s.spawn + s.warm }

// cluster is one booted, loaded and warmed system under test: an
// in-process durable cluster, or metnode processes over the same data.
type cluster struct {
	w       *workload
	dataDir string
	client  store

	// In-process clusters.
	master *hbase.Master

	// Networked clusters.
	rpc     *rpc.Client
	procs   []*child // master process first
	workers []*child

	setup setupTimes
}

// numServers is the region-server count of every workload's cluster.
const numServers = 3

// loadBatch is how many rows one ImportEntries call loads.
const loadBatch = 500

// bootCluster builds the workload's cluster in dataDir and runs every
// set-up phase, recording each phase's time and span. traced arms the
// engine's per-stage spans; ref, when non-nil, receives the in-process
// engine reference latencies the networked workload's rpc split needs.
func bootCluster(w *workload, dataDir string, traced bool, tr *tracer, ref *engineRef) (*cluster, error) {
	c := &cluster{w: w, dataDir: dataDir}
	if err := c.boot(traced, tr, ref); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) boot(traced bool, tr *tracer, ref *engineRef) error {
	w := c.w
	table := w.spec.TableName()
	cfg := w.serverConfig(c.dataDir)
	if traced && !w.networked {
		cfg.SlowOpThreshold = time.Nanosecond
		cfg.SlowOpLogSize = slowOpSample
	}

	ph := tr.phase("setup.boot")
	if err := os.MkdirAll(c.dataDir, 0o755); err != nil {
		return err
	}
	cl, err := met.NewClusterConfig(numServers, cfg)
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	c.master, c.client = cl.Master, cl.Client
	if _, err := c.master.CreateTable(table, w.spec.SplitKeys()); err != nil {
		return fmt.Errorf("create table: %w", err)
	}
	c.setup.boot = ph.end()

	ph = tr.phase("setup.load")
	if err := c.load(); err != nil {
		return err
	}
	c.setup.load = ph.end()

	ph = tr.phase("setup.flush")
	if err := c.flushAll(); err != nil {
		return err
	}
	if ref != nil {
		if err := ref.measure(c); err != nil {
			return err
		}
	}
	c.setup.flush = ph.end()

	if w.networked {
		ph = tr.phase("setup.spawn")
		c.master.HardStop()
		c.master, c.client = nil, nil
		if err := c.spawn(); err != nil {
			return err
		}
		c.setup.spawn = ph.end()
	}

	ph = tr.phase("setup.warm")
	if err := c.warm(); err != nil {
		return err
	}
	c.setup.warm = ph.end()
	return nil
}

// load bulk-loads the initial records straight into each region's store
// in key order, one group-committed batch at a time.
func (c *cluster) load() error {
	w := c.w
	t, err := c.master.Table(w.spec.TableName())
	if err != nil {
		return err
	}
	var batch []kv.Entry
	var region *hbase.Region
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := region.Store().ImportEntries(batch)
		batch = batch[:0]
		if err != nil {
			return fmt.Errorf("load %s: %w", region.Name(), err)
		}
		return nil
	}
	for i := int64(0); i < w.spec.RecordCount; i++ {
		key := w.spec.Key(i)
		r := t.RegionFor(key)
		if r != region || len(batch) == loadBatch {
			if err := flush(); err != nil {
				return err
			}
			region = r
		}
		batch = append(batch, kv.Entry{Key: key, Value: encodeValue(nil, key, loaderClient, 0, w.valueBytes)})
	}
	return flush()
}

// flushAll flushes every region, major-compacts it to one local file,
// waits for the background compactors to go idle and for replication to
// ship everything: the timed phase starts from the same on-disk state
// on every run.
func (c *cluster) flushAll() error {
	for _, rs := range c.master.Servers() {
		for _, r := range rs.Regions() {
			if err := r.Store().Flush(); err != nil {
				return fmt.Errorf("flush %s: %w", r.Name(), err)
			}
			if _, err := rs.MajorCompact(r.Name()); err != nil {
				return err
			}
		}
	}
	if err := c.waitCompactionIdle(); err != nil {
		return err
	}
	c.master.QuiesceReplication()
	return nil
}

// waitCompactionIdle polls every in-process compactor until none has
// queued or running work.
func (c *cluster) waitCompactionIdle() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		busy := 0
		for _, rs := range c.master.Servers() {
			st := rs.CompactionStats()
			busy += st.QueueDepth + st.Running
			busy += int(rs.EngineStats().CompactionQueueDepth)
		}
		if busy == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("compaction still busy (%d) after 60s", busy)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// warm reads the whole table once through the workload's client, which
// fills the block caches and checks the load.
func (c *cluster) warm() error {
	w := c.w
	entries, err := c.client.Scan(w.spec.TableName(), "", "", -1)
	if err != nil {
		return fmt.Errorf("warm scan: %w", err)
	}
	if int64(len(entries)) != w.spec.RecordCount {
		return fmt.Errorf("warm scan: %d rows, loaded %d", len(entries), w.spec.RecordCount)
	}
	for i, e := range entries {
		want := w.spec.Key(int64(i))
		if e.Key != want {
			return fmt.Errorf("warm scan: row %d is %s, want %s", i, e.Key, want)
		}
		id, err := decodeValue(e.Value)
		if err != nil || id.key != want || id.client != loaderClient {
			return fmt.Errorf("warm scan: row %s holds a bad value (%v)", want, err)
		}
	}
	return nil
}

// quiesce blocks until every server has shipped its replication queue.
func (c *cluster) quiesce() error {
	if c.rpc != nil {
		return c.rpc.Quiesce()
	}
	c.master.QuiesceReplication()
	return nil
}

// pids returns the cluster's own processes (none in-process).
func (c *cluster) pids() []int {
	var out []int
	for _, p := range c.procs {
		out = append(out, p.cmd.Process.Pid)
	}
	return out
}

// close stops the cluster and waits for every process it started.
func (c *cluster) close() {
	if c.master != nil {
		c.master.HardStop()
		c.master = nil
	}
	// Workers first, then the master process they registered with.
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].stop()
	}
	c.procs = nil
}

// child is one metnode process.
type child struct {
	name string
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped
}

// startChild starts a metnode that the kernel kills if the benchmark dies.
func startChild(bin, name string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	ch := &child{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a process we stop is not interesting
		close(ch.done)
	}()
	return ch, nil
}

// stop drains the process with SIGINT, killing it if it lingers, and
// waits until it has been reaped.
func (ch *child) stop() {
	_ = ch.cmd.Process.Signal(os.Interrupt)
	select {
	case <-ch.done:
	case <-time.After(15 * time.Second):
		_ = ch.cmd.Process.Kill()
		<-ch.done
	}
}

// metnodeBin is the worker binary the run script built.
var metnodeBin string

// spawn restarts the stopped in-process cluster as one metnode master
// and one metnode process per region server, and dials it.
func (c *cluster) spawn() error {
	runDir := filepath.Join(c.dataDir, "run")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	masterFile := filepath.Join(runDir, "master.addr")
	m, err := startChild(metnodeBin, "master", "-role", "master", "-data", c.dataDir, "-addr-file", masterFile)
	if err != nil {
		return err
	}
	c.procs = append(c.procs, m)
	if m.addr, err = waitAddrFile(masterFile, m); err != nil {
		return err
	}
	for i := 0; i < numServers; i++ {
		name := fmt.Sprintf("rs%d", i)
		f := filepath.Join(runDir, name+".addr")
		wk, err := startChild(metnodeBin, name, "-role", "server", "-name", name, "-master", m.addr, "-addr-file", f)
		if err != nil {
			return err
		}
		c.procs = append(c.procs, wk)
		c.workers = append(c.workers, wk)
	}
	for _, wk := range c.workers {
		if wk.addr, err = waitAddrFile(filepath.Join(runDir, wk.name+".addr"), wk); err != nil {
			return err
		}
		if err := waitReady(wk.addr); err != nil {
			return err
		}
	}
	c.rpc, err = rpc.Dial(m.addr)
	if err != nil {
		return fmt.Errorf("dial master: %w", err)
	}
	c.client = c.rpc
	return nil
}

// waitAddrFile waits for a metnode to publish its bound address.
func waitAddrFile(path string, ch *child) (string, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(path); err == nil {
			return strings.TrimSpace(string(b)), nil
		}
		select {
		case <-ch.done:
			return "", fmt.Errorf("metnode %s exited before serving", ch.name)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("metnode %s: no address after 30s", ch.name)
		}
	}
}

// waitReady polls a worker's readiness probe.
func waitReady(addr string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker %s not ready after 30s", addr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scrapeWorkers reads and sums every worker's /metrics.
func (c *cluster) scrapeWorkers() (promSamples, error) {
	total := promSamples{}
	for _, wk := range c.workers {
		resp, err := http.Get("http://" + wk.addr + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", wk.name, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("%s /metrics: %s", wk.name, resp.Status)
		}
		p, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", wk.name, err)
		}
		total = total.add(p)
	}
	return total, nil
}
