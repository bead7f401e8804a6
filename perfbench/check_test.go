package main

import (
	"strings"
	"testing"

	"met/internal/hbase"
	"met/internal/kv"
	"met/internal/ycsb"
)

var testSpec = ycsb.Workload{RecordCount: 100}

func TestValueRoundTrip(t *testing.T) {
	for _, size := range []int{1, 40, 512} {
		v := encodeValue(nil, "user000000000042", 1, 7, size)
		if size >= 40 && len(v) != size {
			t.Fatalf("size %d: encoded %d bytes", size, len(v))
		}
		id, err := decodeValue(v)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if id != (valueID{key: "user000000000042", client: 1, seq: 7}) {
			t.Fatalf("size %d: decoded %+v", size, id)
		}
	}
}

func TestCorruptedValueIsCaught(t *testing.T) {
	l := newLedger(2, 100)
	key := testSpec.Key(3)
	good := encodeValue(nil, key, loaderClient, 0, 200)
	if err := l.checkGet(key, 3, good, 0); err != nil {
		t.Fatalf("loaded value rejected: %v", err)
	}
	for name, v := range map[string][]byte{
		"flipped byte": func() []byte { b := append([]byte(nil), good...); b[60] ^= 1; return b }(),
		"truncated":    good[:len(good)-3],
		"other key":    encodeValue(nil, testSpec.Key(4), loaderClient, 0, 200),
		"empty":        nil,
	} {
		if err := l.checkGet(key, 3, v, 0); err == nil {
			t.Errorf("%s: corrupted value accepted", name)
		}
	}
}

func TestReadOwnWritesAndStaleReads(t *testing.T) {
	l := newLedger(2, 100)
	const i = 7 // owned by client 1
	if l.owner(i) != 1 || l.ownedBy(6, 1) != 7 || l.ownedBy(99, 0) != 98 || l.ownedBy(98, 1) != 99 {
		t.Fatal("ownership mapping")
	}
	key := testSpec.Key(i)
	for seq := uint32(1); seq <= 3; seq++ {
		if got := l.beginUpdate(i); got != seq {
			t.Fatalf("beginUpdate = %d, want %d", got, seq)
		}
		l.ackUpdate(i, seq)
	}
	lo := l.acked[i].Load()
	if err := l.checkGet(key, i, encodeValue(nil, key, 1, 3, 64), lo); err != nil {
		t.Fatalf("latest write rejected: %v", err)
	}
	if err := l.checkGet(key, i, encodeValue(nil, key, 1, 2, 64), lo); err == nil {
		t.Fatal("stale version accepted after a newer write was acknowledged")
	}
	if err := l.checkGet(key, i, encodeValue(nil, key, loaderClient, 0, 64), lo); err == nil {
		t.Fatal("loaded version accepted after the owner overwrote it")
	}
	if err := l.checkGet(key, i, encodeValue(nil, key, 0, 3, 64), lo); err == nil {
		t.Fatal("write by a client that does not own the key accepted")
	}
	if err := l.checkGet(key, i, encodeValue(nil, key, 1, 4, 64), lo); err == nil {
		t.Fatal("version never issued accepted")
	}
	// An in-flight write may or may not be visible.
	seq := l.beginUpdate(i)
	for _, s := range []uint32{3, seq} {
		if err := l.checkGet(key, i, encodeValue(nil, key, 1, s, 64), lo); err != nil {
			t.Fatalf("in-flight window: version %d rejected: %v", s, err)
		}
	}
}

// scanOf builds scan entries for indices with valid loaded values.
func scanOf(idx ...int64) []kv.Entry {
	out := make([]kv.Entry, len(idx))
	for n, i := range idx {
		k := testSpec.Key(i)
		out[n] = kv.Entry{Key: k, Value: encodeValue(nil, k, loaderClient, 0, 64)}
	}
	return out
}

func TestScanChecks(t *testing.T) {
	l := newLedger(2, 100)
	w := l.openScan(10, 5)
	if err := l.checkScan(w, scanOf(10, 11, 12, 13, 14)); err != nil {
		t.Fatalf("valid scan rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		w       scanWindow
		entries []kv.Entry
		want    string
	}{
		"out of order":      {w, scanOf(10, 11, 12, 11, 13), "out of order"},
		"duplicate":         {w, scanOf(10, 11, 11, 12, 13), "out of order"},
		"before start":      {w, scanOf(9, 10, 11, 12, 13), "out of order"},
		"missing row":       {w, scanOf(10, 11, 13, 14, 15), "missing"},
		"over limit":        {w, scanOf(10, 11, 12, 13, 14, 15), "limit"},
		"stopped short":     {w, scanOf(10, 11, 12), "stopped"},
		"never written":     {l.openScan(98, 5), scanOf(98, 99, 100), "never written"},
		"corrupted payload": {w, append(scanOf(10, 11, 12, 13), kv.Entry{Key: testSpec.Key(14), Value: []byte("junk|00")}), "user000000000014"},
	} {
		err := l.checkScan(tc.w, tc.entries)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, tc.want)
		}
	}
	// The end of the keyspace legitimately ends a scan early.
	if err := l.checkScan(l.openScan(97, 10), scanOf(97, 98, 99)); err != nil {
		t.Fatalf("scan reaching the end rejected: %v", err)
	}
}

func TestScanOverInserts(t *testing.T) {
	l := newLedger(2, 100)
	a, b, c := l.claimInsert(0), l.claimInsert(1), l.claimInsert(0)
	if a != 100 || b != 101 || c != 102 {
		t.Fatalf("claims %d %d %d", a, b, c)
	}
	ins := func(i int64, client int) kv.Entry {
		k := testSpec.Key(i)
		return kv.Entry{Key: k, Value: encodeValue(nil, k, client, 1, 64)}
	}
	l.ackInsert(101) // acknowledged out of order: frontier stays at 100
	if f := l.insertFrontier(); f != 100 {
		t.Fatalf("frontier %d, want 100", f)
	}
	// 100 is in flight, so a scan may skip it.
	w := l.openScan(99, 10)
	if err := l.checkScan(w, append(scanOf(99), ins(101, 1))); err != nil {
		t.Fatalf("scan over an in-flight insert rejected: %v", err)
	}
	l.ackInsert(100)
	l.ackInsert(102)
	if f, n := l.insertFrontier(), l.ackedInserts(); f != 103 || n != 3 {
		t.Fatalf("frontier %d acked %d, want 103 and 3", f, n)
	}
	w = l.openScan(99, 10)
	if err := l.checkScan(w, append(scanOf(99), ins(100, 0), ins(102, 0))); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("acknowledged insert missing from a scan not caught: %v", err)
	}
	if err := l.checkScan(w, append(scanOf(99), ins(100, 1), ins(101, 1), ins(102, 0))); err == nil {
		t.Fatal("insert credited to the wrong client accepted")
	}
}

func TestReadbackCatchesLostAcknowledgedWrite(t *testing.T) {
	l := newLedger(2, 100)
	key := testSpec.Key(5)
	l.ackUpdate(5, l.beginUpdate(5))
	l.ackUpdate(5, l.beginUpdate(5))
	if err := l.checkReadback(key, 5, encodeValue(nil, key, 1, 2, 64)); err != nil {
		t.Fatalf("acknowledged version rejected: %v", err)
	}
	if err := l.checkReadback(key, 5, encodeValue(nil, key, 1, 1, 64)); err == nil {
		t.Fatal("lost acknowledged write not caught")
	}
	i := l.claimInsert(0)
	ik := testSpec.Key(i)
	l.ackInsert(i)
	if err := l.checkReadback(ik, i, encodeValue(nil, ik, 0, 1, 64)); err != nil {
		t.Fatalf("acknowledged insert rejected: %v", err)
	}
}

// mapStore is an in-memory store for exercising readback.
type mapStore map[string][]byte

func (m mapStore) Get(_, key string) ([]byte, error) {
	v, ok := m[key]
	if !ok {
		return nil, hbase.ErrNotFound
	}
	return v, nil
}

func (m mapStore) Put(_, key string, value []byte) error { m[key] = value; return nil }

func (m mapStore) Scan(string, string, string, int) ([]kv.Entry, error) { return nil, nil }

func TestReadbackReportsMissingRows(t *testing.T) {
	w := &workload{spec: ycsb.Workload{RecordCount: 50}, valueBytes: 64}
	l := newLedger(2, 50)
	m := mapStore{}
	for i := int64(0); i < 50; i++ {
		k := w.spec.Key(i)
		m[k] = encodeValue(nil, k, loaderClient, 0, 64)
	}
	c := &cluster{w: w, client: m}
	if tried, bad, msgs := readback(c, l, 1, 200); tried != 200 || bad != 0 {
		t.Fatalf("intact store: %d tried, %d bad: %v", tried, bad, msgs)
	}
	l.ackUpdate(23, l.beginUpdate(23)) // acknowledged, but the store kept the loaded row
	if _, bad, msgs := readback(c, l, 1, 200); bad == 0 || !strings.Contains(strings.Join(msgs, "\n"), "outside") {
		t.Fatalf("stale row: %d bad, %v", bad, msgs)
	}
	m[w.spec.Key(23)] = encodeValue(nil, w.spec.Key(23), 1, 1, 64)
	delete(m, w.spec.Key(17))
	_, bad, msgs := readback(c, l, 1, 200)
	if joined := strings.Join(msgs, "\n"); bad == 0 || !strings.Contains(joined, "missing") {
		t.Fatalf("want both a missing and a stale row reported, got:\n%s", joined)
	}
}
