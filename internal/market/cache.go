package market

// The quote cache: a fingerprint-keyed LRU of prepared QuoteContexts.
// Consumers commonly resubmit the same query shape (same weights, same
// noise variance) round after round; preparing it once and serving the
// cached context skips the whole leakage → compensation → sort →
// aggregate pipeline. Cached contexts are immutable and shared — settle
// only reads them — so a hit costs one mutex-guarded map lookup plus an
// O(support) identity check, and the result is bit-identical to a fresh
// Prepare by construction (it IS a previous Prepare's output).

import (
	"math"
	"sync"

	"datamarket/internal/privacy"
)

// maxCachedSupport bounds the support size of cacheable queries: each
// entry stores a copy of the support weights, so caching near-dense
// queries over a 65536-owner market would cost half a megabyte per
// entry. Queries above the bound just take the pooled prepare path.
const maxCachedSupport = 1024

// cacheEntry is one cached query → context binding, linked into the
// LRU list. support aliases ctx.Support (immutable once cached);
// weights is the query's support-aligned weight copy used to verify a
// fingerprint match exactly.
type cacheEntry struct {
	key      uint64
	owners   int
	variance float64
	support  []int
	weights  []float64
	ctx      *QuoteContext

	prev, next *cacheEntry
}

// quoteCache is the LRU itself. One entry per fingerprint: a colliding
// insert replaces the previous holder, which keeps lookups O(1) and is
// harmless — collisions only cost a re-prepare.
type quoteCache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used
}

func newQuoteCache(capacity int) *quoteCache {
	return &quoteCache{cap: capacity, entries: make(map[uint64]*cacheEntry, capacity)}
}

// fingerprintQuery hashes the query identity the pipeline depends on —
// owner count, noise variance, and the support's (index, weight) pairs
// — with FNV-1a over the raw 64-bit words.
func fingerprintQuery(q *privacy.LinearQuery) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(q.Owners()))
	mix(math.Float64bits(q.NoiseVariance))
	weights := q.SupportWeights()
	for k, i := range q.Support() {
		mix(uint64(i))
		mix(math.Float64bits(weights[k]))
	}
	return h
}

// matches verifies a fingerprint hit is a true identity match.
func (e *cacheEntry) matches(q *privacy.LinearQuery) bool {
	sup, weights := q.Support(), q.SupportWeights()
	if e.owners != q.Owners() || e.variance != q.NoiseVariance || len(e.support) != len(sup) {
		return false
	}
	for k, i := range e.support {
		if sup[k] != i || e.weights[k] != weights[k] {
			return false
		}
	}
	return true
}

// lookup returns the cached context for q if present, along with the
// fingerprint (so a following insert doesn't rehash).
func (c *quoteCache) lookup(q *privacy.LinearQuery) (*QuoteContext, uint64, bool) {
	key := fingerprintQuery(q)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.matches(q) {
		return nil, key, false
	}
	c.moveToFront(e)
	return e.ctx, key, true
}

// insert stores a freshly prepared context under key, evicting the
// least recently used entry past capacity. ctx must never be mutated
// after insertion.
func (c *quoteCache) insert(key uint64, q *privacy.LinearQuery, ctx *QuoteContext) {
	e := &cacheEntry{
		key:      key,
		owners:   q.Owners(),
		variance: q.NoiseVariance,
		support:  ctx.Support,
		weights:  append([]float64(nil), q.SupportWeights()...),
		ctx:      ctx,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.unlink(old)
	}
	c.entries[key] = e
	c.pushFront(e)
	for len(c.entries) > c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
	}
}

func (c *quoteCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *quoteCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *quoteCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// len reports the live entry count (tests).
func (c *quoteCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
