package main

import (
	"testing"
	"time"
)

func TestParseHostTicks(t *testing.T) {
	steal, total, err := parseHostTicks("cpu  100 5 50 800 20 0 5 20 0 0\n")
	if err != nil || steal != 20 || total != 1000 {
		t.Fatalf("parseHostTicks = %d, %d, %v; want 20, 1000", steal, total, err)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, _, err := parseHostTicks(bad); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
	if _, _, err := readHostTicks(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildWindowsAssignsOpsByCompletion(t *testing.T) {
	s := time.Second
	marks := []mark{
		{at: 0, steal: 0, total: 0},
		{at: s, steal: 50, total: 200, cpu: time.Second, hwmKiB: 1000},
		{at: 2 * s, steal: 50, total: 400, cpu: 3 * time.Second, hwmKiB: 2000},
		{at: 2*s + s/10, steal: 60, total: 420, cpu: 3 * time.Second, hwmKiB: 1500},
	}
	ph := &phaseResult{}
	ph.lat[opGet] = []int64{10, 20, 30, 40}
	ph.done[opGet] = []int64{int64(s / 2), int64(s + s/2), int64(2*s + s/20), int64(3 * s)}
	ph.lat[opPut] = []int64{99}
	ph.done[opPut] = []int64{int64(s / 3)}
	ws := buildWindows(ph, marks)
	if len(ws) != 3 {
		t.Fatalf("%d windows, want 3", len(ws))
	}
	if ws[0].ops != 2 || ws[1].ops != 1 || ws[2].ops != 2 {
		t.Fatalf("ops per window %d %d %d, want 2 1 2 (late ops count in the last)", ws[0].ops, ws[1].ops, ws[2].ops)
	}
	if ws[0].steal != 0.25 || ws[1].steal != 0 || ws[1].cpu != 2*time.Second || ws[1].hwmKiB != 2000 {
		t.Fatalf("window 1: %+v", ws[1])
	}
	sel, worst := cleanWindows(ws)
	// The 0.1 s tail window is too short to rank; the two full ones form
	// one block, whose less stolen window is window 1.
	if len(sel) != 1 || sel[0].steal != 0 || worst != 0 {
		t.Fatalf("clean windows %+v (worst steal %v)", sel, worst)
	}
	if l := pooled(ws[:1], []opClass{opGet, opPut}); len(l.samples) != 2 {
		t.Fatalf("pooled %v", l.samples)
	}
}

func TestCleanWindowsPicksLeastStolenOfEachBlock(t *testing.T) {
	var ws []window
	for _, st := range []float64{0.30, 0.01, 0.20, 0.02, 0.05, 0.40, 0.03} {
		ws = append(ws, window{secs: 1, steal: st})
	}
	sel, worst := cleanWindows(ws)
	if len(sel) != 3 || sel[0].steal != 0.01 || sel[1].steal != 0.02 || sel[2].steal != 0.03 || worst != 0.03 {
		t.Fatalf("picked %+v up to steal %v; want 0.01, 0.02, 0.03 in phase order", sel, worst)
	}
}
