package durable

import "hash/fnv"

// bloomFilter is a classic Bloom filter over string keys, using double
// hashing (Kirsch–Mitzenmacher) on one FNV-1a base hash: probe i tests
// bit (h1 + i·h2) mod m. It answers "definitely absent" or "maybe
// present"; SSTable Gets use it to skip disk entirely for keys the file
// cannot contain.
type bloomFilter struct {
	k    uint32
	bits []byte
}

// newBloomFilter sizes a filter for n keys at bitsPerKey density. The
// number of probes k ≈ bitsPerKey·ln2 is the false-positive-optimal
// choice. A nil filter (bitsPerKey < 0 or n == 0) means "no filter":
// mayContain always answers maybe.
func newBloomFilter(n, bitsPerKey int) *bloomFilter {
	if bitsPerKey < 0 || n <= 0 {
		return nil
	}
	if bitsPerKey == 0 {
		bitsPerKey = 10
	}
	k := uint32(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	mBits := n * bitsPerKey
	if mBits < 64 {
		mBits = 64
	}
	return &bloomFilter{k: k, bits: make([]byte, (mBits+7)/8)}
}

// bloomHash is the FNV-1a base hash of key; the second probe hash is
// derived from it (see probes).
func bloomHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

func probes(h1 uint64) (uint64, uint64) {
	return h1, h1>>17 | h1<<47 // odd-ish rotation as the second hash
}

// addHash inserts a key by its bloomHash; SSTable builds gather the
// hashes while streaming, before the filter can be sized.
func (b *bloomFilter) addHash(h uint64) {
	if b == nil {
		return
	}
	h1, h2 := probes(h)
	m := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

func (b *bloomFilter) mayContain(key string) bool {
	if b == nil {
		return true
	}
	h1, h2 := probes(bloomHash(key))
	m := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// marshal serializes the filter as k (1 byte) followed by the bit array.
// A nil filter marshals to nil (zero-length section in the SSTable).
func (b *bloomFilter) marshal() []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, 1+len(b.bits))
	out[0] = byte(b.k)
	copy(out[1:], b.bits)
	return out
}

// unmarshalBloom parses a marshaled filter; empty input means no filter.
func unmarshalBloom(buf []byte) (*bloomFilter, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	if len(buf) < 2 || buf[0] == 0 || buf[0] > 30 {
		return nil, corruptf("bloom filter header")
	}
	return &bloomFilter{k: uint32(buf[0]), bits: append([]byte(nil), buf[1:]...)}, nil
}
