package lru

import (
	"sync"
	"sync/atomic"
	"testing"
)

// idHash is a trivial 64-bit hash for small integer keys.
func idHash(k int) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

func strHash(k string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 1099511628211
	}
	return h
}

func TestEvictionOrderAndStats(t *testing.T) {
	c := New[int, string](2, idHash)
	c.Add(1, "a")
	c.Add(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
	c.Add(3, "c") // evicts 2 (1 was refreshed by the Get)
	if _, ok := c.Get(2); ok {
		t.Error("2 should have been evicted")
	}
	if _, ok := c.Get(1); !ok {
		t.Error("1 should have survived (most recently used)")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	// Do reports each lookup's outcome: a stored entry is a hit, an
	// evicted one a miss that recomputes.
	if v, o := c.Do(1, func() (string, bool) { return "x", true }); o != Hit || v != "a" {
		t.Errorf("Do(1) = %q,%v; want a stored hit", v, o)
	}
	if v, o := c.Do(2, func() (string, bool) { return "b2", true }); o != Miss || v != "b2" {
		t.Errorf("Do(2) = %q,%v; want a computed miss", v, o)
	}
}

func TestAddKeepsFirstOnDuplicate(t *testing.T) {
	c := New[string, int](4, strHash)
	c.Add("k", 1)
	c.Add("k", 2) // racing second miss: first stays
	if v, _ := c.Get("k"); v != 1 {
		t.Errorf("duplicate Add replaced the stored value: got %d", v)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int, int](64, idHash)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 100
				if _, ok := c.Get(k); !ok {
					c.Add(k, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("Len %d exceeds capacity", c.Len())
	}
}

// TestHashCollisions forces every key onto one 64-bit hash bucket: the
// full-key collision check must keep all entries distinct and correct
// (the guarantee that lets callers key the map by a precomputed 64-bit
// hash of a much larger key).
func TestHashCollisions(t *testing.T) {
	c := New[string, int](8, func(string) uint64 { return 42 })
	keys := []string{"a", "b", "c", "d", "e"}
	for i, k := range keys {
		c.Add(k, i)
	}
	for i, k := range keys {
		if v, ok := c.Get(k); !ok || v != i {
			t.Errorf("Get(%q) = %d,%v; want %d,true", k, v, ok, i)
		}
	}
	// Eviction must unlink the right entry from the shared chain.
	c2 := New[string, int](2, func(string) uint64 { return 7 })
	c2.Add("x", 1)
	c2.Add("y", 2)
	c2.Add("z", 3) // evicts x
	if _, ok := c2.Get("x"); ok {
		t.Error("x should have been evicted from the collision chain")
	}
	for k, want := range map[string]int{"y": 2, "z": 3} {
		if v, ok := c2.Get(k); !ok || v != want {
			t.Errorf("Get(%q) = %d,%v; want %d,true", k, v, ok, want)
		}
	}
	if c2.Len() != 2 {
		t.Errorf("Len = %d, want 2", c2.Len())
	}
}

// TestDoSingleFlight: concurrent Do calls on one key run compute once;
// everyone receives the same value.
func TestDoSingleFlight(t *testing.T) {
	c := New[int, int](8, idHash)
	var computes, hits, misses atomic.Int32
	gate := make(chan struct{})
	const workers = 8
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, o := c.Do(5, func() (int, bool) {
				computes.Add(1)
				return 99, true
			})
			switch o {
			case Hit:
				hits.Add(1)
			case Miss:
				misses.Add(1)
			default:
				t.Errorf("worker %d: Do reported outcome %v", i, o)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 99 {
			t.Errorf("worker %d got %d, want 99", i, v)
		}
	}
	if h, m := hits.Load(), misses.Load(); m != 1 || h != workers-1 {
		t.Errorf("outcomes = %d hits / %d misses, want %d/1", h, m, workers-1)
	}
}

// TestDoUncacheable: compute reporting ok=false stores nothing, and a
// subsequent Do recomputes.
func TestDoUncacheable(t *testing.T) {
	c := New[int, int](8, idHash)
	calls := 0
	for i := 0; i < 2; i++ {
		if v, o := c.Do(1, func() (int, bool) { calls++; return 7, false }); o != Miss || v != 7 {
			t.Errorf("Do = %d,%v; want 7,Miss", v, o)
		}
	}
	if calls != 2 {
		t.Errorf("uncacheable compute ran %d times, want 2", calls)
	}
	if c.Len() != 0 {
		t.Errorf("uncacheable result was stored (Len=%d)", c.Len())
	}
}

// TestDoPanicReleasesWaiters: a panicking leader must not leave waiters
// blocked or the key poisoned.
func TestDoPanicReleasesWaiters(t *testing.T) {
	c := New[int, int](8, idHash)
	func() {
		defer func() { _ = recover() }()
		c.Do(3, func() (int, bool) { panic("boom") })
	}()
	// The flight must be cleaned up: a fresh Do computes normally.
	if v, o := c.Do(3, func() (int, bool) { return 11, true }); o != Miss || v != 11 {
		t.Errorf("Do after panic = %d,%v; want 11,Miss", v, o)
	}
}

// TestExportImport: Export returns entries MRU-first; Import into a
// fresh cache preserves values and recency (eviction order).
func TestExportImport(t *testing.T) {
	c := New[int, string](10, func(k int) uint64 { return uint64(k % 3) }) // force chains
	for i := 0; i < 5; i++ {
		c.Add(i, string(rune('a'+i)))
	}
	c.Get(0) // 0 becomes MRU: order 0,4,3,2,1
	exp := c.Export()
	if len(exp) != 5 || exp[0].Key != 0 || exp[1].Key != 4 {
		t.Fatalf("unexpected export order: %+v", exp)
	}

	c2 := New[int, string](3, func(k int) uint64 { return uint64(k % 3) })
	c2.Import(exp)
	if c2.Len() != 3 {
		t.Fatalf("import past capacity kept %d entries, want 3", c2.Len())
	}
	// The 3 most recent (0, 4, 3) survive; 2 and 1 were evicted.
	for _, k := range []int{0, 4, 3} {
		if v, ok := c2.Get(k); !ok || v != string(rune('a'+k)) {
			t.Fatalf("entry %d missing or wrong after import: %q %v", k, v, ok)
		}
	}
	if _, ok := c2.Get(1); ok {
		t.Fatal("least-recent entry survived capacity-bounded import")
	}
}
