package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The host this benchmark runs on may be a virtual machine whose CPUs
// the hypervisor lends to other guests for seconds at a time ("steal"
// in /proc/stat). A stolen second slows every op in it for reasons that
// have nothing to do with the program. So the timed phase is cut into
// one-second windows and the wall-clock metrics are computed over, from
// each run of three consecutive windows, the one in which the least CPU
// was stolen. Picking one per run of three keeps the chosen windows
// spread evenly over the phase: throughput may drift as a run goes on
// (a growing WAL tail, say), and every run then averages the same drift.

// blockWindows is how many consecutive windows compete for one pick.
const blockWindows = 3

// mark is the machine and process state at one instant of a timed phase.
type mark struct {
	at     time.Duration // since the phase began
	steal  int64         // ticks the hypervisor stole, all CPUs
	total  int64         // all ticks, all CPUs
	cpu    time.Duration // CPU used by this process and the cluster's
	hwmKiB int64         // summed peak RSS since the previous mark
}

// readHostTicks returns the steal and total tick counts of /proc/stat's
// aggregate cpu line.
func readHostTicks() (steal, total int64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("/proc/stat: %w", err)
	}
	return parseHostTicks(line)
}

// parseHostTicks parses "cpu user nice system idle iowait irq softirq
// steal ...": steal is the eighth counter.
func parseHostTicks(line string) (steal, total int64, err error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected cpu line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// takeMark samples the host and the processes, restarting each
// process's peak-RSS counter so the next mark's peak is its own.
func takeMark(start time.Time, pids []int) (mark, error) {
	m := mark{at: time.Since(start)}
	var err error
	if m.steal, m.total, err = readHostTicks(); err != nil {
		return m, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return m, fmt.Errorf("getrusage: %w", err)
	}
	m.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	for i, pid := range append([]int{os.Getpid()}, pids...) {
		p, err := readProc(pid)
		if err != nil {
			return m, err
		}
		if i > 0 {
			m.cpu += time.Duration(p.cpuTicks) * (time.Second / clockTicks)
		}
		m.hwmKiB += p.hwmKiB
		if err := resetPeakRSS(pid); err != nil {
			return m, fmt.Errorf("reset peak RSS of %d: %w", pid, err)
		}
	}
	return m, nil
}

// resetPeakRSS restarts a process's VmHWM at its current RSS.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// marksResult is what sampleMarks returns over its channel.
type marksResult struct {
	marks []mark
	err   error
}

// sampleMarks takes a mark at once, then every interval, and a last one
// when stop closes.
func sampleMarks(start time.Time, pids []int, interval time.Duration, stop <-chan struct{}) marksResult {
	var r marksResult
	take := func() bool {
		m, err := takeMark(start, pids)
		if err != nil {
			r.err = err
			return false
		}
		r.marks = append(r.marks, m)
		return true
	}
	if !take() {
		return r
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if !take() {
				return r
			}
		case <-stop:
			take()
			return r
		}
	}
}

// window is the part of a timed phase between two marks.
type window struct {
	lat    [numClasses][]int64 // latencies of the ops that completed in it
	ops    int
	secs   float64
	steal  float64 // share of the host's CPU time stolen
	cpu    time.Duration
	hwmKiB int64
}

// buildWindows assigns every completed op to the window its completion
// falls in; ops completing after the last mark count in the last window.
func buildWindows(ph *phaseResult, marks []mark) []window {
	if len(marks) < 2 {
		return nil
	}
	ws := make([]window, len(marks)-1)
	for i := range ws {
		a, b := marks[i], marks[i+1]
		ws[i].secs = (b.at - a.at).Seconds()
		if b.total > a.total {
			ws[i].steal = float64(b.steal-a.steal) / float64(b.total-a.total)
		}
		ws[i].cpu = b.cpu - a.cpu
		ws[i].hwmKiB = b.hwmKiB
	}
	for k := range ph.lat {
		for j, end := range ph.done[k] {
			i, _ := slices.BinarySearchFunc(marks[1:], time.Duration(end), func(m mark, t time.Duration) int {
				return int(m.at - t)
			})
			i = min(i, len(ws)-1)
			ws[i].lat[k] = append(ws[i].lat[k], ph.lat[k][j])
			ws[i].ops++
		}
	}
	return ws
}

// fullWindows drops the windows shorter than half the longest (the
// stub between the last tick and the end of the phase).
func fullWindows(ws []window) []window {
	longest := 0.0
	for _, w := range ws {
		longest = max(longest, w.secs)
	}
	var full []window
	for _, w := range ws {
		if w.secs >= longest/2 {
			full = append(full, w)
		}
	}
	return full
}

// cleanWindows picks, from each run of blockWindows consecutive full
// windows, the one with the least steal (the earliest on a tie). It
// returns the picks and the highest steal share among them.
func cleanWindows(ws []window) ([]window, float64) {
	full := fullWindows(ws)
	var sel []window
	worst := 0.0
	for i := 0; i < len(full); i += blockWindows {
		block := full[i:min(i+blockWindows, len(full))]
		best := block[0]
		for _, w := range block[1:] {
			if w.steal < best.steal {
				best = w
			}
		}
		sel = append(sel, best)
		worst = max(worst, best.steal)
	}
	return sel, worst
}

// pooled merges the latencies of the given classes over the windows.
func pooled(ws []window, classes []opClass) latency {
	var l latency
	for _, w := range ws {
		for _, k := range classes {
			l.samples = append(l.samples, w.lat[k]...)
		}
	}
	return l
}
