package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"met/internal/kv"
)

// loaderClient is the writer id stamped on the rows loaded during set-up.
const loaderClient = 0xff

// crcTail is the length of the "|xxxxxxxx" checksum suffix of a value.
const crcTail = 9

// filler is the repeating text a value's body is cut from, at an offset
// that differs between versions.
var filler = strings.Repeat("abcdefghijklmnopqrstuvwxyz", 40)

// valueID is what a self-describing value says about itself: the key it
// was written under, the client that wrote it and that client's write
// sequence number for the key.
type valueID struct {
	key    string
	client int
	seq    uint32
}

// encodeValue appends a value of exactly size bytes (or the header's
// length, if larger) describing (key, client, seq), ending in a CRC-32
// of everything before it:
//
//	<key>|<client hex2>|<seq hex8>|<filler>|<crc hex8>
func encodeValue(dst []byte, key string, client int, seq uint32, size int) []byte {
	start := len(dst)
	dst = append(dst, key...)
	dst = fmt.Appendf(dst, "|%02x|%08x|", client, seq)
	off := int(seq*7+uint32(client)) % 26
	for fill := size - (len(dst) - start) - crcTail; fill > 0; off = 0 {
		n := min(fill, len(filler)-off)
		dst = append(dst, filler[off:off+n]...)
		fill -= n
	}
	sum := crc32.ChecksumIEEE(dst[start:])
	return fmt.Appendf(dst, "|%08x", sum)
}

// decodeValue checks a value's checksum and parses its header. It runs
// on every value every op returns, so it parses in place.
func decodeValue(v []byte) (valueID, error) {
	if len(v) < crcTail+1 || v[len(v)-crcTail] != '|' {
		return valueID{}, errors.New("value too short or missing checksum")
	}
	body := v[:len(v)-crcTail]
	want, ok := parseHex(v[len(v)-crcTail+1:])
	if !ok {
		return valueID{}, errors.New("bad checksum field")
	}
	if crc32.ChecksumIEEE(body) != want {
		return valueID{}, errors.New("checksum mismatch")
	}
	k := bytes.IndexByte(body, '|')
	if k < 0 || len(body) < k+1+2+1+8+1 || body[k+3] != '|' || body[k+12] != '|' {
		return valueID{}, errors.New("malformed header")
	}
	client, ok1 := parseHex(body[k+1 : k+3])
	seq, ok2 := parseHex(body[k+4 : k+12])
	if !ok1 || !ok2 {
		return valueID{}, errors.New("malformed header")
	}
	return valueID{key: string(body[:k]), client: int(client), seq: seq}, nil
}

// parseHex parses up to eight lower-case hex digits.
func parseHex(b []byte) (uint32, bool) {
	if len(b) == 0 || len(b) > 8 {
		return 0, false
	}
	var x uint32
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			x = x<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			x = x<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return x, true
}

// ledger is the benchmark's model of every write it has issued and had
// acknowledged. Each loaded record has exactly one writer — the client
// that owns it (index mod clients) — so a record is a single-writer
// register and a read can be checked exactly: it must return a version
// no older than the last one acknowledged before the read began and no
// newer than the last one issued when it ended. Inserted records are
// written once, by the client that claimed the index.
type ledger struct {
	clients int
	records int64
	issued  []atomic.Uint32 // per record: owner's last issued seq (0 = loaded row)
	acked   []atomic.Uint32 // per record: owner's last acknowledged seq

	nextInsert atomic.Int64 // next index an insert claims

	mu       sync.Mutex
	frontier int64          // every index below it is acknowledged
	pending  map[int64]bool // acknowledged inserts at or above frontier
	inserter map[int64]int  // claimed insert index -> client
}

func newLedger(clients int, records int64) *ledger {
	l := &ledger{
		clients:  clients,
		records:  records,
		issued:   make([]atomic.Uint32, records),
		acked:    make([]atomic.Uint32, records),
		frontier: records,
		pending:  make(map[int64]bool),
		inserter: make(map[int64]int),
	}
	l.nextInsert.Store(records)
	return l
}

// owner is the only client that updates record i.
func (l *ledger) owner(i int64) int { return int(i % int64(l.clients)) }

// ownedBy maps a drawn record index to the nearest record client c owns,
// keeping the drawn index's neighbourhood (and so its popularity).
func (l *ledger) ownedBy(i int64, c int) int64 {
	j := i - i%int64(l.clients) + int64(c)
	if j >= l.records {
		j -= int64(l.clients)
	}
	return j
}

// beginUpdate returns the seq the owner writes next for record i.
func (l *ledger) beginUpdate(i int64) uint32 {
	seq := l.issued[i].Load() + 1
	l.issued[i].Store(seq)
	return seq
}

// ackUpdate records that the write of seq to record i was acknowledged.
func (l *ledger) ackUpdate(i int64, seq uint32) { l.acked[i].Store(seq) }

// claimInsert reserves the next key index for client c.
func (l *ledger) claimInsert(c int) int64 {
	i := l.nextInsert.Add(1) - 1
	l.mu.Lock()
	l.inserter[i] = c
	l.mu.Unlock()
	return i
}

// ackInsert records an acknowledged insert and advances the frontier
// over every contiguous acknowledged index.
func (l *ledger) ackInsert(i int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending[i] = true
	for l.pending[l.frontier] {
		delete(l.pending, l.frontier)
		l.frontier++
	}
}

// insertFrontier returns the index below which every key is acknowledged.
func (l *ledger) insertFrontier() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frontier
}

// insertedBy reports which client claimed insert index i.
func (l *ledger) insertedBy(i int64) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.inserter[i]
	return c, ok
}

// ackedInserts returns how many inserts were acknowledged.
func (l *ledger) ackedInserts() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frontier - l.records + int64(len(l.pending))
}

// keyIndex parses the record index out of a ycsb key ("user%012d").
func keyIndex(key string) (int64, error) {
	if !strings.HasPrefix(key, "user") {
		return 0, fmt.Errorf("key %q lacks the user prefix", key)
	}
	return strconv.ParseInt(key[len("user"):], 10, 64)
}

// checkVersion validates one value read for record or insert index i
// against the version window [lo, hi] the ledger allowed for it.
func (l *ledger) checkVersion(key string, i int64, v []byte, lo, hi uint32) error {
	id, err := decodeValue(v)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if id.key != key {
		return fmt.Errorf("%s: value describes key %q", key, id.key)
	}
	if i >= l.records {
		c, ok := l.insertedBy(i)
		if !ok || id.client != c || id.seq != 1 {
			return fmt.Errorf("%s: insert read as client %d seq %d (claimed by %d, known %v)", key, id.client, id.seq, c, ok)
		}
		return nil
	}
	wantClient := l.owner(i)
	if id.seq == 0 {
		wantClient = loaderClient
	}
	if id.client != wantClient {
		return fmt.Errorf("%s: written by client %d, only %d writes it", key, id.client, wantClient)
	}
	if id.seq < lo || id.seq > hi {
		return fmt.Errorf("%s: read version %d outside [%d, %d] (stale or phantom write)", key, id.seq, lo, hi)
	}
	return nil
}

// checkGet validates a Get of record i; lo is acked[i] loaded before the
// call was issued.
func (l *ledger) checkGet(key string, i int64, v []byte, lo uint32) error {
	return l.checkVersion(key, i, v, lo, l.issued[i].Load())
}

// scanWindow is what the ledger knew when a scan was issued.
type scanWindow struct {
	start    int64
	limit    int
	frontier int64
	lo       []uint32 // acked versions of records start..start+limit-1
}

// openScan snapshots the ledger before a scan from index start.
func (l *ledger) openScan(start int64, limit int) scanWindow {
	w := scanWindow{start: start, limit: limit, frontier: l.insertFrontier(), lo: make([]uint32, 0, limit)}
	for i := start; i < start+int64(limit) && i < l.records; i++ {
		w.lo = append(w.lo, l.acked[i].Load())
	}
	return w
}

// checkScan validates a scan's result: keys strictly ascending from the
// start key, no more than the limit, no gap below the insert frontier
// (every row there is acknowledged, so a hole is a lost row), nothing
// that was never claimed, and every value a valid version of its key.
func (l *ledger) checkScan(w scanWindow, entries []kv.Entry) error {
	if len(entries) > w.limit {
		return fmt.Errorf("scan from %d returned %d entries, limit %d", w.start, len(entries), w.limit)
	}
	claimed := l.nextInsert.Load()
	prev := w.start - 1
	for n, e := range entries {
		i, err := keyIndex(e.Key)
		if err != nil {
			return err
		}
		if i <= prev {
			return fmt.Errorf("scan from %d: key %s out of order or before the start", w.start, e.Key)
		}
		if i != prev+1 && prev+1 < w.frontier {
			return fmt.Errorf("scan from %d: acknowledged row %d missing (entry %d is %s)", w.start, prev+1, n, e.Key)
		}
		if i >= claimed {
			return fmt.Errorf("scan from %d: key %s was never written", w.start, e.Key)
		}
		if e.Tombstone {
			return fmt.Errorf("scan from %d: tombstone for %s", w.start, e.Key)
		}
		lo, hi := uint32(0), uint32(0)
		if i < l.records {
			hi = l.issued[i].Load()
			if k := i - w.start; k < int64(len(w.lo)) {
				lo = w.lo[k]
			}
		}
		if err := l.checkVersion(e.Key, i, e.Value, lo, hi); err != nil {
			return err
		}
		prev = i
	}
	if len(entries) < w.limit && prev+1 < w.frontier {
		return fmt.Errorf("scan from %d stopped after %d of %d entries before acknowledged row %d",
			w.start, len(entries), w.limit, prev+1)
	}
	return nil
}

// checkReadback validates a post-run read of index i after replication
// quiesced: it must return exactly the last acknowledged version.
func (l *ledger) checkReadback(key string, i int64, v []byte) error {
	if i >= l.records {
		return l.checkVersion(key, i, v, 1, 1)
	}
	a := l.acked[i].Load()
	return l.checkVersion(key, i, v, a, a)
}
