// Package lru is the bounded, thread-safe LRU memo underlying the
// solver's fingerprint-keyed caches (pgraph.SimplifyCache and
// sketch.ShapeCache). Both caches share the same mechanics — move-to-
// front on hit, eviction from the back past the capacity bound, and a
// per-lookup Outcome the caller tallies into its own per-run counters —
// so they share this one implementation and only differ in key and
// value types. The cache keeps no counters of its own: it is shared by
// concurrent runs, and global counters would mix their lookups.
//
// Two design points are specific to the memo workload:
//
//   - Keys are large comparable structs (a 32-byte content hash plus
//     discriminators). Indexing the recency map by them directly makes
//     every probe rehash the full struct (runtime aeshash over the
//     whole key, visible in CPU profiles). The cache therefore indexes
//     a precomputed 64-bit hash (caller-supplied, typically
//     maphash-seeded) and keeps the full key on each entry, comparing
//     it on every probe: a 64-bit collision degrades to a chained
//     lookup, never to a wrong value.
//   - Concurrent workers frequently miss on the same key at the same
//     time (duplicate leaf procedures land on sibling workers within
//     one scheduling level). Do provides single-flight semantics: the
//     first caller computes, the others wait for its result instead of
//     duplicating the work.
package lru

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// entry is one key/value pair on the recency list. stamp is the
// global-recency tick of the entry's last touch, maintained only when
// the cache is a shard of a Sharded (clock != nil): within one shard
// the list order already IS recency, but merging shards back into one
// global recency order (Sharded.Export) needs a cross-shard clock.
type entry[K comparable, V any] struct {
	hash  uint64
	key   K
	val   V
	stamp uint64
}

// flight is one in-progress single-flight computation.
type flight[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	ok   bool // leader stored a value (compute reported it cacheable)
}

// Cache is a bounded LRU map from K to V, safe for concurrent use.
// The recency index is keyed by hash(K); full keys are collision-
// checked on every probe.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	cap      int
	hash     func(K) uint64
	order    *list.List // front = most recently used
	byHash   map[uint64][]*list.Element
	inflight map[uint64][]*flight[K, V]
	// clock, when non-nil, is the shared cross-shard recency clock of
	// the owning Sharded; every touch stamps the entry with a fresh
	// tick. Standalone caches leave it nil (zero overhead).
	clock *atomic.Uint64
}

// New returns a cache bounded to capacity entries (capacity must be
// positive; callers apply their own defaults). hash must be a fixed
// function of the key; it is computed once per operation.
func New[K comparable, V any](capacity int, hash func(K) uint64) *Cache[K, V] {
	return &Cache[K, V]{
		cap:      capacity,
		hash:     hash,
		order:    list.New(),
		byHash:   map[uint64][]*list.Element{},
		inflight: map[uint64][]*flight[K, V]{},
	}
}

// find returns the element holding key, or nil. Callers hold mu.
func (c *Cache[K, V]) find(h uint64, key K) *list.Element {
	for _, el := range c.byHash[h] {
		if el.Value.(*entry[K, V]).key == key {
			return el
		}
	}
	return nil
}

// removeElement unlinks el from both indexes. Callers hold mu.
func (c *Cache[K, V]) removeElement(el *list.Element) {
	e := el.Value.(*entry[K, V])
	c.order.Remove(el)
	chain := c.byHash[e.hash]
	for i, cand := range chain {
		if cand == el {
			chain[i] = chain[len(chain)-1]
			chain = chain[:len(chain)-1]
			break
		}
	}
	if len(chain) == 0 {
		delete(c.byHash, e.hash)
	} else {
		c.byHash[e.hash] = chain
	}
}

// touch stamps el's entry with a fresh global-recency tick when the
// cache is clocked. Callers hold mu.
func (c *Cache[K, V]) touch(el *list.Element) {
	if c.clock != nil {
		el.Value.(*entry[K, V]).stamp = c.clock.Add(1)
	}
}

// addLocked stores val under key unless already present. Callers hold
// mu.
func (c *Cache[K, V]) addLocked(h uint64, key K, val V) {
	if el := c.find(h, key); el != nil {
		// Two concurrent misses may race to store; the first stays —
		// both values are equivalent by construction in the memo use
		// case.
		c.order.MoveToFront(el)
		c.touch(el)
		return
	}
	el := c.order.PushFront(&entry[K, V]{hash: h, key: key, val: val})
	c.touch(el)
	c.byHash[h] = append(c.byHash[h], el)
	for c.order.Len() > c.cap {
		c.removeElement(c.order.Back())
	}
}

// Outcome classifies one memo lookup for the caller's per-run
// accounting.
type Outcome uint8

const (
	// Bypass: no cache or no usable key; the value was computed without
	// consulting the memo. Counted neither as a hit nor as a miss.
	Bypass Outcome = iota
	// Hit: the value came from a stored entry or from a concurrent
	// caller's completed computation — the work was saved.
	Hit
	// Miss: this caller computed the value, either as the leader of the
	// flight or because the leader's result was not cacheable.
	Miss
)

// Get returns the value stored under key, marking it most recently
// used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	h := c.hash(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.find(h, key); el != nil {
		c.order.MoveToFront(el)
		c.touch(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add stores val under key unless the key is already present. Past the
// capacity bound the least recently used entries are evicted.
func (c *Cache[K, V]) Add(key K, val V) {
	h := c.hash(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(h, key, val)
}

// Do returns the value under key, computing it at most once across
// concurrent callers (single flight). On a miss the first caller runs
// compute unlocked; callers that miss on the same key while the
// computation is in progress wait for it instead of duplicating the
// work. compute reports whether its result is cacheable: when it
// returns false nothing is stored and waiters receive the zero value
// with outcome Miss (they fall back to computing privately — by
// construction that only happens for results that cannot be shared
// anyway).
//
// The outcome is Hit when the value came from a stored entry or from a
// completed flight (the work was saved), and Miss for the compute
// leader and for a waiter whose leader's result was uncacheable.
func (c *Cache[K, V]) Do(key K, compute func() (V, bool)) (V, Outcome) {
	h := c.hash(key)
	c.mu.Lock()
	if el := c.find(h, key); el != nil {
		c.order.MoveToFront(el)
		c.touch(el)
		v := el.Value.(*entry[K, V]).val
		c.mu.Unlock()
		return v, Hit
	}
	for _, f := range c.inflight[h] {
		if f.key == key {
			c.mu.Unlock()
			<-f.done
			// A waiter whose leader produced an uncacheable result
			// recomputes privately and must count as a miss, or hit
			// rates would overstate sharing exactly where it fails.
			if f.ok {
				return f.val, Hit
			}
			var zero V
			return zero, Miss
		}
	}
	f := &flight[K, V]{key: key, done: make(chan struct{})}
	c.inflight[h] = append(c.inflight[h], f)
	c.mu.Unlock()

	// The deferred cleanup also runs when compute panics, so waiters
	// are released (with no value, outcome Miss) instead of blocking
	// forever.
	defer func() {
		c.mu.Lock()
		chain := c.inflight[h]
		for i, cand := range chain {
			if cand == f {
				chain[i] = chain[len(chain)-1]
				chain = chain[:len(chain)-1]
				break
			}
		}
		if len(chain) == 0 {
			delete(c.inflight, h)
		} else {
			c.inflight[h] = chain
		}
		if f.ok {
			c.addLocked(h, key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.ok = compute()
	return f.val, Miss
}

// Entry is one exported key/value pair; see Export.
type Entry[K comparable, V any] struct {
	Key K
	Val V
}

// Export returns the cache's entries in recency order (most recently
// used first). The snapshot is taken under the lock, so it is
// consistent, but values are shared with the cache — callers must
// treat them as read-only (the memo use case stores immutable values).
func (c *Cache[K, V]) Export() []Entry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[K, V], 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		out = append(out, Entry[K, V]{Key: e.key, Val: e.val})
	}
	return out
}

// Import loads entries produced by Export (typically in another
// process, after the keys and values have crossed a wire decode),
// preserving their relative recency: entries[0] ends up most recently
// used. Keys already present keep their existing value. Entries past the capacity bound are
// evicted as usual, least recent first.
func (c *Cache[K, V]) Import(entries []Entry[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		c.addLocked(c.hash(e.Key), e.Key, e.Val)
	}
}

// Len reports the current entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
