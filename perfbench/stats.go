package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// tailPercentile returns the highest of p99.9, p99, p90 and p50 that has
// at least ten samples beyond it in n samples (0 when n < 20: no
// percentile above the median is supported and the median needs ten
// samples beyond it too).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90, 50} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

// latency is a group of op latencies in nanoseconds.
type latency struct {
	samples []int64
}

// summary sorts the samples and returns the median and the requested
// tail percentile, lowered to the highest one the sample count supports,
// with the percentile actually used.
func (l *latency) summary(wantTail float64) (p50, tail int64, tailP float64) {
	slices.Sort(l.samples)
	tailP = min(wantTail, tailPercentile(len(l.samples)))
	if tailP == 0 {
		tailP = 50
	}
	return percentile(l.samples, 50), percentile(l.samples, tailP), tailP
}

// procSample is one process's counters read from /proc/<pid>.
type procSample struct {
	cpuTicks   int64 // utime + stime, in clock ticks
	writeBytes int64 // bytes this process caused to be sent to storage
	hwmKiB     int64 // peak resident set (VmHWM)
}

// clockTicks is the kernel's USER_HZ, fixed at 100 on Linux.
const clockTicks = 100

// readProc reads a process's CPU, I/O and peak-RSS counters. Any missing
// field is an error: a counter that cannot be read is never reported as 0.
func readProc(pid int) (procSample, error) {
	dir := fmt.Sprintf("/proc/%d", pid)
	var s procSample
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	if s.cpuTicks, err = parseStatCPU(stat); err != nil {
		return s, fmt.Errorf("%s/stat: %w", dir, err)
	}
	io, err := os.ReadFile(dir + "/io")
	if err != nil {
		return s, err
	}
	if s.writeBytes, err = parseKeyed(io, "write_bytes:"); err != nil {
		return s, fmt.Errorf("%s/io: %w", dir, err)
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	if s.hwmKiB, err = parseKeyed(status, "VmHWM:"); err != nil {
		return s, fmt.Errorf("%s/status: %w", dir, err)
	}
	return s, nil
}

// parseStatCPU returns utime+stime from a /proc/<pid>/stat line. The
// command name may hold spaces, so fields are counted after its ')'.
func parseStatCPU(stat []byte) (int64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("no command field")
	}
	f := strings.Fields(string(stat[i+1:]))
	// After ")": state is field 3 of the full line, so utime (14) and
	// stime (15) are at offsets 11 and 12 here.
	if len(f) < 13 {
		return 0, fmt.Errorf("only %d fields", len(f))
	}
	u, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	s, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return u + s, nil
}

// parseKeyed returns the first integer after key in a "key: value [unit]"
// file such as /proc/<pid>/io or /proc/<pid>/status.
func parseKeyed(b []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, fmt.Errorf("%s has no value", key)
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s not found", key)
}

// promSamples is a parsed Prometheus text exposition: series (name plus
// its label set exactly as rendered) to value.
type promSamples map[string]float64

// parseProm parses Prometheus text format, skipping comments. A
// malformed sample line is an error.
func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// sub returns the per-series difference p - before.
func (p promSamples) sub(before promSamples) promSamples {
	out := make(promSamples, len(p))
	for k, v := range p {
		out[k] = v - before[k]
	}
	return out
}

// add sums two expositions series by series.
func (p promSamples) add(o promSamples) promSamples {
	out := make(promSamples, len(p))
	for k, v := range p {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir. A file the
// cluster removes while the walk runs (a retired WAL segment) no longer
// takes space and is skipped.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			var info fs.FileInfo
			if info, err = d.Info(); err == nil {
				total += info.Size()
			}
		}
		if errors.Is(err, fs.ErrNotExist) && path != dir {
			return nil
		}
		return err
	})
	return total, err
}

// ratio returns num/den, or -1 when den is 0: the layer did no work of
// that kind on this workload, so the ratio does not exist.
func ratio(num, den float64) float64 {
	if den == 0 {
		return -1
	}
	return num / den
}
