package lru

import (
	"sort"
	"sync/atomic"
)

// DefaultShards is the shard count selected by NewSharded when the
// caller passes shards <= 0. Eight shards cut the convoying a single
// cache mutex shows under worker fan-out (concurrent F.1/F.2 workers
// all touching one LRU lock) while keeping per-shard capacity large
// enough that eviction behavior is indistinguishable from the
// unsharded cache at memo workloads' entry counts.
const DefaultShards = 8

// minAutoShardCap is the smallest per-shard capacity the automatic
// shard selection accepts. Sharding trades exact global LRU eviction
// for lock distribution: each shard evicts by its own recency order, so
// with tiny per-shard capacities the victim can differ from the global
// LRU entry. That approximation is invisible when shards hold dozens of
// entries but very visible at capacity 2 — so small caches (where lock
// contention cannot matter anyway) automatically fall back to a single
// shard and keep the exact semantics. An explicit shards argument
// overrides this: the caller has decided the trade.
const minAutoShardCap = 64

// Sharded is a bounded LRU split into N independently locked shards
// selected by the caller-supplied 64-bit key hash. It exposes the same
// surface as Cache, with two deliberate properties:
//
//   - Single-flight stays per-shard: concurrent misses on the same key
//     land on the same shard and coalesce exactly as in Cache; misses
//     on different keys in different shards no longer serialize on one
//     mutex or one in-flight table.
//   - Export/Import preserve global recency. Every touch stamps the
//     entry from one shared atomic clock, and Export merges the shards
//     by stamp, so the wire forms written by the fingerprint caches
//     are byte-compatible with (and, absent eviction, byte-identical
//     to) the unsharded implementation's: the shard count is a purely
//     internal layout choice that never reaches a key, a wire byte, or
//     an entry's relative recency.
//
// The shard index is derived from hash(K) — the same seeded 64-bit
// hash the recency maps index by — so shard placement is uniform but
// process-local; Import re-routes entries written by a process with a
// different seed or shard count.
type Sharded[K comparable, V any] struct {
	hash   func(K) uint64
	shards []*Cache[K, V]
	clock  atomic.Uint64
}

// NewSharded returns a sharded cache bounded to capacity entries in
// total, split over the given shard count (shards <= 0 selects up to
// DefaultShards, backing off to fewer — possibly one — when capacity is
// too small for per-shard eviction to approximate global LRU well; an
// explicit count is only clamped to capacity so every shard holds at
// least one entry). hash must be a fixed function of the key.
func NewSharded[K comparable, V any](capacity, shards int, hash func(K) uint64) *Sharded[K, V] {
	if shards <= 0 {
		shards = DefaultShards
		if max := capacity / minAutoShardCap; shards > max {
			shards = max
		}
	}
	if shards > capacity {
		shards = capacity
	}
	if shards < 1 {
		shards = 1
	}
	s := &Sharded[K, V]{hash: hash, shards: make([]*Cache[K, V], shards)}
	per := (capacity + shards - 1) / shards
	for i := range s.shards {
		s.shards[i] = New[K, V](per, hash)
		s.shards[i].clock = &s.clock
	}
	return s
}

// Shards reports the shard count (observability and tests).
func (s *Sharded[K, V]) Shards() int { return len(s.shards) }

// shardFor routes a key hash to its shard.
func (s *Sharded[K, V]) shardFor(h uint64) *Cache[K, V] {
	return s.shards[h%uint64(len(s.shards))]
}

// Get returns the value stored under key, marking it most recently
// used.
func (s *Sharded[K, V]) Get(key K) (V, bool) {
	return s.shardFor(s.hash(key)).Get(key)
}

// Add stores val under key unless the key is already present.
func (s *Sharded[K, V]) Add(key K, val V) {
	s.shardFor(s.hash(key)).Add(key, val)
}

// Do returns the value under key, computing it at most once across
// concurrent callers. Single-flight coalescing is per-shard (same-key
// callers always share a shard); see Cache.Do for the semantics.
func (s *Sharded[K, V]) Do(key K, compute func() (V, bool)) (V, Outcome) {
	return s.shardFor(s.hash(key)).Do(key, compute)
}

// Len reports the current entry count summed over all shards.
func (s *Sharded[K, V]) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// stamped is one entry paired with its global-recency stamp.
type stamped[K comparable, V any] struct {
	e     Entry[K, V]
	stamp uint64
}

// exportStamped snapshots one shard's entries with their stamps.
func (c *Cache[K, V]) exportStamped() []stamped[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]stamped[K, V], 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		out = append(out, stamped[K, V]{e: Entry[K, V]{Key: e.key, Val: e.val}, stamp: e.stamp})
	}
	return out
}

// importOne inserts one entry (stamped from the shared clock by
// addLocked); Sharded.Import drives it in reverse recency order.
func (c *Cache[K, V]) importOne(key K, val V) {
	h := c.hash(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(h, key, val)
}

// Export returns the cache's entries in global recency order (most
// recently used first), merging the shards by their touch stamps. Each
// shard's snapshot is consistent; the merge is taken shard by shard,
// so concurrent mutation can skew relative order across shards exactly
// as it could skew a reader racing the unsharded cache's lock. Values
// are shared with the cache — callers must treat them as read-only.
func (s *Sharded[K, V]) Export() []Entry[K, V] {
	var all []stamped[K, V]
	for _, sh := range s.shards {
		all = append(all, sh.exportStamped()...)
	}
	// Stamps are unique (one shared atomic clock), so the order is
	// total; descending stamp = most recently used first.
	sort.Slice(all, func(i, j int) bool { return all[i].stamp > all[j].stamp })
	out := make([]Entry[K, V], len(all))
	for i, st := range all {
		out[i] = st.e
	}
	return out
}

// Import loads entries produced by Export (of a Sharded with any shard
// count, or of a plain Cache), preserving their relative recency:
// entries[0] ends up most recently used. Keys already present keep
// their existing value.
func (s *Sharded[K, V]) Import(entries []Entry[K, V]) {
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		s.shardFor(s.hash(e.Key)).importOne(e.Key, e.Val)
	}
}
