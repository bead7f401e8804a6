// Command perfbench is the repository benchmark. It boots a durable
// cluster, loads it, drives one seeded closed-loop YCSB workload for a
// fixed time, checks every reply, and prints the end-to-end metrics (or,
// traced, the per-layer ones) by name with unit and sample count. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}, ...}}
//
// Run it through run.sh from the repository root, which builds it and
// the metnode worker first:
//
//	bash perfbench/run.sh --workload durable-insert --seed 1 --seconds 10 --trace 0
//
// Exit status: 0 on success, 1 if any op failed or returned a wrong
// result (the JSON line is still printed), 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"met/internal/obs"
)

// setupRepeats is how many times an untraced run sets up its cluster;
// setup_s is the median, and the last cluster is the one measured.
const setupRepeats = 7

// readbackOps is how many acknowledged rows are re-read after a run.
const readbackOps = 2000

// slowOpSample is each server's slow-op ring size in traced runs: the
// stage split is computed over the last this-many ops per server.
const slowOpSample = 20000

// maxClients caps the closed-loop client goroutines (also capped at the
// CPU count).
const maxClients = 2

func main() {
	os.Exit(run())
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	root     string
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: rpc-read-hot, durable-insert, durable-scan (or durable-update, which the program fails)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root; data and traces go under its .bench_build")
	flag.StringVar(&metnodeBin, "metnode", "", "metnode binary (networked workload)")
	flag.Parse()
	w, err := findWorkload(o.workload)
	if err != nil || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v, seconds %d, trace %d)\n",
			o.workload, err, o.seconds, o.trace)
		return 2
	}
	if w.networked && metnodeBin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: the networked workload needs -metnode")
		return 2
	}
	if w.defect != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s is not in BENCHMARK.json: %s\n", w.name, w.defect)
	}
	runDir := filepath.Join(o.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	defer func() {
		_ = os.RemoveAll(runDir) // a leftover directory under .bench_build only costs space
		// Commit the removal (and the discards it queues) now, so the
		// next run does not start on a disk still busy with this one's.
		syscall.Sync()
	}()

	clients := min(maxClients, runtime.NumCPU())
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d clients=%d nproc=%d GOMAXPROCS=%d\n",
		w.name, o.seed, o.seconds, o.trace, clients, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var rep *report
	if o.trace == 1 {
		rep, err = tracedRun(w, o, runDir, clients)
	} else {
		rep, err = untracedRun(w, o, runDir, clients)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	return rep.print()
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or provenance, printed, not in the JSON
}

// report is what a run prints.
type report struct {
	metrics   []metric
	attempted int64
	failed    int64
	messages  []string
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

// printInfo prints a figure that is reported but not a declared metric.
func printInfo(name string, value float64, unit, note string) {
	fmt.Printf("%-34s %16.4f %-6s %s (not in BENCHMARK.json)\n", name, value, unit, note)
}

func (r *report) print() int {
	for _, m := range r.messages {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", m)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not a number\n", m.name)
			return 2
		}
		fmt.Printf("%-34s %16.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	fmt.Printf("%-34s %16.6f %-6s failed=%d attempted=%d\n", "failed_ops_frac",
		float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.failed, r.attempted)
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(b))
	if r.failed > 0 {
		return 1
	}
	return 0
}

// measured is one timed phase and the counters around it.
type measured struct {
	ph             *phaseResult
	start, end     time.Time
	before, after  usage
	windows        []window
	sBefore        serverSnap
	sAfter         serverSnap
	pBefore        promSamples
	pAfter         promSamples
	spaceAmp       float64
	readbackTried  int64
	readbackFailed int64
	readbackMsgs   []string
}

// measure runs one timed phase on c with the counters sampled on both
// sides and every second in between, then settles the cluster
// (replication quiesced, compaction idle), measures its disk footprint
// and re-reads a sample of rows.
func measure(c *cluster, seed uint64, clients int, d time.Duration, traced bool) (*measured, error) {
	w := c.w
	l := newLedger(clients, w.spec.RecordCount)
	m := &measured{}
	var err error
	if w.networked {
		if m.pBefore, err = c.scrapeWorkers(); err != nil {
			return nil, err
		}
	} else {
		m.sBefore = snapServers(c.master)
	}
	runtime.GC()
	debug.FreeOSMemory()
	// Start the phase with no dirty pages left over from set-up, so
	// their writeback does not land inside the timed window.
	syscall.Sync()
	if m.before, err = readUsage(c.pids()); err != nil {
		return nil, err
	}
	m.start = time.Now()
	stop := make(chan struct{})
	marks := make(chan marksResult, 1)
	go func() { marks <- sampleMarks(m.start, c.pids(), time.Second, stop) }()
	m.ph = runPhase(c, l, seed, clients, m.start, d, traced)
	m.end = time.Now()
	close(stop)
	mr := <-marks
	if mr.err != nil {
		return nil, mr.err
	}
	if m.windows = buildWindows(m.ph, mr.marks); len(m.windows) == 0 {
		return nil, fmt.Errorf("timed phase too short to sample")
	}
	if m.after, err = readUsage(c.pids()); err != nil {
		return nil, err
	}
	if w.networked {
		if m.pAfter, err = c.scrapeWorkers(); err != nil {
			return nil, err
		}
	} else {
		m.sAfter = snapServers(c.master)
	}

	if err := c.quiesce(); err != nil {
		return nil, fmt.Errorf("quiesce: %w", err)
	}
	if !w.networked {
		if err := c.waitCompactionIdle(); err != nil {
			return nil, err
		}
		if err := c.quiesce(); err != nil {
			return nil, err
		}
	}
	used, err := dirBytes(c.dataDir)
	if err != nil {
		return nil, fmt.Errorf("data dir size: %w", err)
	}
	live := float64(l.records+l.ackedInserts()) * float64(w.rowBytes())
	m.spaceAmp = float64(used) / live
	m.readbackTried, m.readbackFailed, m.readbackMsgs = readback(c, l, seed, readbackOps)
	return m, nil
}

// cleanThroughput is the ops per second over the windows cleanWindows picks.
func (m *measured) cleanThroughput() float64 {
	sel, _ := cleanWindows(m.windows)
	ops, secs := 0, 0.0
	for _, w := range sel {
		ops += w.ops
		secs += w.secs
	}
	return float64(ops) / secs
}

// failures folds a phase's errors and wrong results into the report.
func (r *report) failures(m *measured) {
	r.attempted += m.ph.attempted + m.readbackTried
	r.failed += m.ph.errors + m.ph.violations + m.readbackFailed
	r.messages = append(r.messages, m.ph.firstBad...)
	r.messages = append(r.messages, m.readbackMsgs...)
}

// untracedRun sets the cluster up setupRepeats times and measures the
// last one: the end-to-end metrics.
func untracedRun(w *workload, o options, runDir string, clients int) (*report, error) {
	var setups []float64
	var c *cluster
	for s := 0; s < setupRepeats; s++ {
		dir := filepath.Join(runDir, fmt.Sprintf("setup%d", s))
		var err error
		if c, err = bootCluster(w, dir, false, nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, c.setup.total())
		if s < setupRepeats-1 {
			c.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer c.close()
	m, err := measure(c, o.seed, clients, time.Duration(o.seconds)*time.Second, false)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.failures(m)
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %v", len(setups), roundAll(setups)))

	sel, steal := cleanWindows(m.windows)
	fmt.Print("host steal % per 1-s window:")
	for _, w := range m.windows {
		fmt.Printf(" %.0f", w.steal*100)
	}
	fmt.Println()
	fmt.Print("ops per 1-s window:")
	for _, w := range m.windows {
		fmt.Printf(" %d", w.ops)
	}
	fmt.Println()
	ops, secs, cpu := 0, 0.0, time.Duration(0)
	for _, w := range sel {
		ops += w.ops
		secs += w.secs
		cpu += w.cpu
	}
	clean := fmt.Sprintf("over %d of %d 1-s windows, the least host steal of each 3 (<= %.1f%%)",
		len(sel), len(m.windows), steal*100)
	rep.add("throughput_ops_s", float64(ops)/secs, "ops/s", fmt.Sprintf("%d ops in %.2fs %s", ops, secs, clean))
	// Write latency is fsync-bound, and the development box's shared
	// disk moves it by 30-130% between runs, past any bound a regression
	// gate can hold; it is printed with the other figures but not
	// declared in BENCHMARK.json (see DESIGN.md).
	for _, side := range []struct {
		name    string
		classes []opClass
		add     func(name string, value float64, unit, note string)
	}{{"read", []opClass{opGet, opScan}, rep.add}, {"write", []opClass{opPut, opInsert}, printInfo}} {
		lat := pooled(sel, side.classes)
		if len(lat.samples) == 0 {
			return nil, fmt.Errorf("no %s op completed", side.name)
		}
		_, tail, tailP := lat.summary(99)
		note := fmt.Sprintf("%s n=%d %s", classesIn(m.ph, side.classes), len(lat.samples), clean)
		// The median is taken per window, then across every full window:
		// a read median that sits between memstore hits and block reads
		// jumps with the mix of one second, the middle window's much
		// less, and a median over all windows already sets aside the
		// stolen ones while they are a minority.
		full := fullWindows(m.windows)
		var p50s []float64
		for _, w := range full {
			if l := pooled([]window{w}, side.classes); tailPercentile(len(l.samples)) >= 50 {
				p50, _, _ := l.summary(50)
				p50s = append(p50s, float64(p50))
			}
		}
		if len(p50s) == 0 {
			return nil, fmt.Errorf("no window holds 20 %s ops", side.name)
		}
		side.add(side.name+"_p50_us", median(p50s)/1e3, "us", fmt.Sprintf("median of %d of %d 1-s windows' p50, %s n=%d",
			len(p50s), len(full), classesIn(m.ph, side.classes), len(m.ph.lat[side.classes[0]])+len(m.ph.lat[side.classes[1]])))
		side.add(side.name+"_p99_us", float64(tail)/1e3, "us", fmt.Sprintf("p%g of the windows pooled, %s", tailP, note))
	}
	rep.add("cpu_us_per_op", float64(cpu.Microseconds())/float64(ops), "us",
		fmt.Sprintf("%.2f CPU-s of %d processes %s", cpu.Seconds(), 1+len(c.pids()), clean))
	ph := m.ph
	written := m.after.writeBytes - m.before.writeBytes
	rep.add("write_amp", float64(written)/float64(ph.userBytes), "ratio",
		fmt.Sprintf("%d storage bytes / %d user bytes acknowledged, whole phase", written, ph.userBytes))
	rep.add("space_amp", m.spaceAmp, "ratio", "data dir bytes / live user bytes, after quiesce")
	peaks := make([]float64, len(m.windows))
	for i, w := range m.windows {
		peaks[i] = float64(w.hwmKiB) / 1024
	}
	rep.add("peak_rss_mb", median(peaks), "MiB",
		fmt.Sprintf("median over %d 1-s windows of the summed VmHWM of %d processes", len(peaks), 1+len(c.pids())))
	for k := opClass(0); k < numClasses; k++ {
		lat := latency{samples: ph.lat[k]}
		if len(lat.samples) == 0 {
			continue
		}
		p50, tail, tailP := lat.summary(99)
		fmt.Printf("class %-6s whole phase n=%-8d p50=%.1fus p%g=%.1fus\n", classNames[k], len(lat.samples),
			float64(p50)/1e3, tailP, float64(tail)/1e3)
	}
	return rep, nil
}

// classesIn names the classes of the group the phase completed ops of.
func classesIn(ph *phaseResult, classes []opClass) string {
	var names []string
	for _, k := range classes {
		if len(ph.lat[k]) > 0 {
			names = append(names, classNames[k])
		}
	}
	return strings.Join(names, "+")
}

// tracedRun measures the workload twice on fresh clusters, half the
// time each: untraced, and with the benchmark's spans and the engine's
// per-stage spans armed. The seed's parity sets which goes first, so
// neither systematically profits from a warmer process. It reports the
// per-layer metrics of the traced phase and the throughput tracing cost.
func tracedRun(w *workload, o options, runDir string, clients int) (*report, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	rep := &report{}
	tr := newTracer()
	var plain, m *measured
	var setup setupTimes
	var ops []obs.SlowOp
	var ref *engineRef
	if w.networked {
		ref = &engineRef{}
	}
	untraced := func() error {
		c, err := bootCluster(w, filepath.Join(runDir, "untraced"), false, nil, nil)
		if err != nil {
			return err
		}
		defer c.close()
		plain, err = measure(c, o.seed, clients, half, false)
		return err
	}
	traced := func() error {
		tr.root = tr.add(span{Name: "setup", Start: tr.now()})
		c, err := bootCluster(w, filepath.Join(runDir, "traced"), true, tr, ref)
		if err != nil {
			return err
		}
		defer c.close()
		tr.spans[tr.root-1].End = tr.now()
		phaseStart := tr.now()
		if m, err = measure(c, o.seed, clients, half, true); err != nil {
			return err
		}
		tr.addOps(clientLayer(w), phaseStart, m.ph.records)
		if !w.networked {
			ops = serverOps(c.master, m.start, m.end)
			tr.addServerOps(ops)
		}
		setup = c.setup
		return nil
	}
	phases := []func() error{untraced, traced}
	if o.seed%2 == 1 {
		phases[0], phases[1] = traced, untraced
	}
	for _, run := range phases {
		if err := run(); err != nil {
			return nil, err
		}
	}
	rep.failures(plain)
	rep.failures(m)
	layerMetrics(rep, w, setup, plain, m, ref, ops)

	dir := filepath.Join(o.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	return rep, nil
}

// clientLayer names the public client the workload's ops call.
func clientLayer(w *workload) string {
	if w.networked {
		return "rpc.Client"
	}
	return "hbase.Client"
}

// median returns the middle of v (the mean of the two middle values for
// an even count).
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// roundAll rounds set-up times for the note.
func roundAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
