package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"met/internal/obs"
)

// span is one traced interval: name, start and end relative to the
// tracer's epoch, the span that caused it and the op it belongs to.
// Spans of one op share its op id; set-up spans have op id 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing (untraced runs time their set-up phases only).
type tracer struct {
	epoch time.Time
	root  int64 // span id of the set-up being recorded
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) int64 {
	s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// phaseTimer times one set-up phase and, when traced, records its span.
type phaseTimer struct {
	t     *tracer
	name  string
	start time.Time
}

func (t *tracer) phase(name string) phaseTimer {
	return phaseTimer{t: t, name: name, start: time.Now()}
}

// end closes the phase and returns its duration in seconds.
func (p phaseTimer) end() float64 {
	d := time.Since(p.start)
	if p.t != nil {
		start := int64(p.start.Sub(p.t.epoch))
		p.t.add(span{Parent: p.t.root, Name: p.name, Start: start, End: start + int64(d)})
	}
	return d.Seconds()
}

// addOps records each timed op as an "op" span with three children:
// ycsb key generation, the public client call and the result check.
// offset is the phase start relative to the tracer's epoch.
func (t *tracer) addOps(prefix string, offset int64, recs []opRecord) {
	for n, r := range recs {
		op := int64(n) + 1
		id := t.add(span{Op: op, Name: "op." + classNames[r.class], Start: offset + r.t0, End: offset + r.t3})
		t.add(span{Parent: id, Op: op, Name: "ycsb.gen", Start: offset + r.t0, End: offset + r.t1})
		t.add(span{Parent: id, Op: op, Name: prefix + "." + classNames[r.class], Start: offset + r.t1, End: offset + r.t2})
		t.add(span{Parent: id, Op: op, Name: "check", Start: offset + r.t2, End: offset + r.t3})
	}
}

// addServerOps records the engine's per-stage spans drained from the
// region servers' slow-op rings (every op is "slow" at a 1 ns
// threshold). Stage spans carry durations only, so they are laid end
// to end from the op's start.
func (t *tracer) addServerOps(ops []obs.SlowOp) {
	for _, o := range ops {
		start := int64(o.Time.Sub(t.epoch))
		id := t.add(span{Name: "server." + o.Op, Start: start, End: start + int64(o.Total)})
		at := start
		for _, s := range o.Spans {
			t.add(span{Parent: id, Name: "stage." + s.Stage, Start: at, End: at + int64(s.Dur)})
			at += int64(s.Dur)
		}
	}
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
