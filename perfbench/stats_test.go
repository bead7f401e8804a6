package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"met/internal/obs"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %d", got)
	}
}

func TestSummaryLowersTailToWhatTheCountSupports(t *testing.T) {
	l := latency{samples: make([]int64, 500)}
	for i := range l.samples {
		l.samples[i] = int64(500 - i) // unsorted on purpose
	}
	p50, tail, tailP := l.summary(99)
	if tailP != 90 || p50 != 250 || tail != 450 {
		t.Fatalf("500 samples: p50=%d tail=%d at p%v; want 250, 450 at p90", p50, tail, tailP)
	}
	l = latency{samples: make([]int64, 5000)}
	for i := range l.samples {
		l.samples[i] = int64(i + 1)
	}
	if _, tail, tailP := l.summary(99); tailP != 99 || tail != 4950 {
		t.Fatalf("5000 samples: tail=%d at p%v; want 4950 at p99", tail, tailP)
	}
}

func TestParseStatCPUSkipsCommandWithSpaces(t *testing.T) {
	stat := "4242 (met node) S 1 4242 4242 0 -1 4194560 900 0 0 0 137 42 0 0 20 0 9 0 5000 100000 2000\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil || got != 179 {
		t.Fatalf("parseStatCPU = %d, %v; want 179", got, err)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Fatal("truncated stat line parsed")
	}
}

func TestParseKeyedFailsLoudlyOnMissingField(t *testing.T) {
	io := "rchar: 10\nwchar: 20\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n"
	if got, err := parseKeyed([]byte(io), "write_bytes:"); err != nil || got != 8192 {
		t.Fatalf("write_bytes = %d, %v", got, err)
	}
	status := "Name:\tmetnode\nVmPeak:\t  1000 kB\nVmHWM:\t   512 kB\n"
	if got, err := parseKeyed([]byte(status), "VmHWM:"); err != nil || got != 512 {
		t.Fatalf("VmHWM = %d, %v", got, err)
	}
	if _, err := parseKeyed([]byte("rchar: 1\n"), "write_bytes:"); err == nil {
		t.Fatal("a missing counter must be an error, not 0")
	}
}

func TestReadProcSelf(t *testing.T) {
	s, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if s.hwmKiB <= 0 {
		t.Fatalf("VmHWM of a running process = %d", s.hwmKiB)
	}
	if _, err := readProc(1 << 30); err == nil {
		t.Fatal("reading a process that does not exist succeeded")
	}
}

const workerMetrics = `# HELP rpc_op_latency_seconds RPC handler latency by op
# TYPE rpc_op_latency_seconds summary
rpc_op_latency_seconds{op="/node/get",quantile="0.5"} 0.0001
rpc_op_latency_seconds_sum{op="/node/get"} 1.5
rpc_op_latency_seconds_count{op="/node/get"} 10000
rpc_op_latency_seconds_sum{op="/node/put"} 0.5
rpc_op_latency_seconds_count{op="/node/put"} 500
# HELP met_tail_floor_ships_total bounded-lag floor tail ships
# TYPE met_tail_floor_ships_total counter
met_tail_floor_ships_total 7
`

func TestParsePromAndDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(workerMetrics))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(strings.NewReplacer(
		`_sum{op="/node/get"} 1.5`, `_sum{op="/node/get"} 2.5`,
		`_count{op="/node/get"} 10000`, `_count{op="/node/get"} 15000`,
		"met_tail_floor_ships_total 7", "met_tail_floor_ships_total 9",
	).Replace(workerMetrics)))
	if err != nil {
		t.Fatal(err)
	}
	// Two workers summed, then diffed.
	d := after.add(after).sub(before.add(before))
	if got := d[`rpc_op_latency_seconds_sum{op="/node/get"}`]; got != 2 {
		t.Errorf("get sum delta = %v, want 2", got)
	}
	if got := d[`rpc_op_latency_seconds_count{op="/node/get"}`]; got != 10000 {
		t.Errorf("get count delta = %v, want 10000", got)
	}
	if got := d[`rpc_op_latency_seconds_count{op="/node/put"}`]; got != 0 {
		t.Errorf("put count delta = %v, want 0", got)
	}
	if got := d["met_tail_floor_ships_total"]; got != 4 {
		t.Errorf("floor ships delta = %v, want 4", got)
	}
	if _, err := parseProm(strings.NewReader("rpc_op_latency_seconds_sum oops\n")); err == nil {
		t.Fatal("malformed sample parsed")
	}
}

func TestDirBytesAndRatio(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "a", "b"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"x": 100, "a/y": 20, "a/b/z": 3} {
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := dirBytes(dir); err != nil || got != 123 {
		t.Fatalf("dirBytes = %d, %v; want 123", got, err)
	}
	if ratio(1, 0) != notObserved || ratio(3, 2) != 1.5 {
		t.Fatal("ratio")
	}
}

func TestMeanDeltaCoversOnlyTheNewObservations(t *testing.T) {
	var h obs.Histogram
	h.RecordNanos(1_000_000) // before the phase
	before := h.Snapshot()
	h.RecordNanos(2_000)
	h.RecordNanos(4_000)
	if got := meanDelta(h.Snapshot(), before); got != 3 {
		t.Fatalf("meanDelta = %v µs, want 3", got)
	}
	if got := meanDelta(before, before); got != notObserved {
		t.Fatalf("meanDelta with no new observations = %v, want %v", got, notObserved)
	}
}
