package sketch

import (
	"testing"

	"retypd/internal/constraints"
	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/lru"
	"retypd/internal/pgraph"
)

// sealFixture builds a small decorated sketch the way the solver does.
func sealFixture(t *testing.T) (*Sketch, *lattice.Lattice) {
	t.Helper()
	cs := constraints.MustParseSet(`
		F.in_stack0 <= p
		p.load.σ32@0 <= x
		x <= int
		int <= F.out_eax
	`)
	lat := lattice.Default()
	sh := NewBuilder(cs, lat)
	defer sh.Release()
	g := pgraph.Build(cs, lat)
	defer g.Release()
	sk := sh.SketchFor("F", -1)
	NewDecorator(g).Decorate(sk, "F")
	return sk, lat
}

// TestSealMakesDecoratePanic: the immutability contract — decorating a
// sealed (cache-served) sketch must panic instead of silently mutating
// shared state.
func TestSealMakesDecoratePanic(t *testing.T) {
	sk, lat := sealFixture(t)
	cs := constraints.MustParseSet(`F.out_eax <= int`)
	g := pgraph.Build(cs, lat)
	defer g.Release()
	dec := NewDecorator(g)
	defer dec.Release()

	sk.Seal()
	if !sk.Sealed() {
		t.Fatal("Seal did not mark the sketch sealed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Decorate on a sealed sketch did not panic")
		}
	}()
	dec.Decorate(sk, "F")
}

// TestSealClampsSharedStorage: appends performed on views derived from
// a sealed sketch must reallocate, never write into the sealed backing
// arrays — the copy-on-write half of the contract.
func TestSealClampsSharedStorage(t *testing.T) {
	sk, lat := sealFixture(t)
	sk.Seal()
	before := sk.String()

	// Descend shares the bound-set slice headers with the parent; with
	// the parent sealed their caps are clamped, so growing the copy's
	// sets cannot touch the parent.
	sub, ok := sk.Descend(label.Word{label.In("stack0")})
	if !ok {
		t.Fatal("descend failed")
	}
	if sub.Sealed() {
		t.Fatal("Descend of a sealed sketch must return a mutable copy")
	}
	for _, e := range []string{"int", "ptr", "num32", "code"} {
		if el, ok := lat.Elem(e); ok {
			sub.States[0].AddLower(lat, el)
			sub.States[0].AddUpper(lat, el)
		}
	}
	// Meet/Join/WithRootVariance likewise derive fresh values.
	m := sub.Meet(sk)
	if m.Sealed() {
		t.Fatal("Meet must return a mutable sketch")
	}
	_ = sk.WithRootVariance(label.Contravariant)
	if sk.States[0].Variance != label.Covariant {
		t.Fatal("WithRootVariance mutated the sealed original")
	}
	// Identity cases on a sealed receiver still yield mutable copies —
	// a sealed sketch never hands itself out as a derived view.
	if same := sk.WithRootVariance(label.Covariant); same == sk || same.Sealed() {
		t.Fatal("WithRootVariance identity on a sealed sketch must copy")
	}
	if whole, ok := sk.Descend(label.Word{}); !ok || whole == sk || whole.Sealed() {
		t.Fatal("Descend(ε) on a sealed sketch must return a mutable copy")
	}

	if got := sk.String(); got != before {
		t.Fatalf("mutating derived views changed the sealed sketch:\nbefore:\n%s\nafter:\n%s", before, got)
	}
}

// TestShapeCacheServesSealedIdenticalSketches: a hit returns the very
// entry that was stored (sealed), and the memo round-trips the
// decorated sketch unchanged.
func TestShapeCacheServesSealedIdenticalSketches(t *testing.T) {
	cs := constraints.MustParseSet(`
		F.in_stack0 <= p
		p.load.σ32@0 <= x
		x <= int
		int <= F.out_eax
	`)
	lat := lattice.Default()
	fp := pgraph.Fingerprint(cs, lat)
	if !fp.Usable() {
		t.Fatal("fingerprint not usable")
	}
	cache := NewShapeCache(0)

	build := func(v constraints.Var) *Sketch {
		sh := NewBuilder(cs, lat)
		defer sh.Release()
		g := pgraph.Build(cs, lat)
		defer g.Release()
		sk := sh.SketchFor(v, -1)
		NewDecorator(g).Decorate(sk, v)
		return sk
	}
	plain := build("F").String()

	sk1, o1 := cache.SketchFor(fp, "F", -1, build)
	sk2, o2 := cache.SketchFor(fp, "F", -1, func(constraints.Var) *Sketch {
		t.Fatal("build invoked on what should be a hit")
		return nil
	})
	if !sk1.Sealed() || !sk2.Sealed() {
		t.Error("cache-served sketches must be sealed")
	}
	if sk1 != sk2 {
		t.Error("hit did not serve the stored entry")
	}
	if sk1.String() != plain {
		t.Errorf("cached sketch diverges from direct solve:\n%s\nvs\n%s", sk1.String(), plain)
	}
	if o1 != lru.Miss || o2 != lru.Hit {
		t.Errorf("outcomes = %v, %v; want a miss then a hit", o1, o2)
	}

	// A different depth bound is a different entry.
	sk3, o3 := cache.SketchFor(fp, "F", 2, build)
	if sk3 == sk1 {
		t.Error("depth bound must partition the cache key")
	}
	if o3 != lru.Miss {
		t.Errorf("depth-bound lookup outcome = %v, want a miss", o3)
	}

	// Variables outside the rename map degrade to direct building.
	direct, od := cache.SketchFor(fp, "nosuchvar", -1, func(constraints.Var) *Sketch { return NewTop(lat) })
	if direct.Sealed() {
		t.Error("fallback build must not be sealed or cached")
	}
	if od != lru.Bypass {
		t.Errorf("fallback outcome = %v, want Bypass", od)
	}
}

// TestShapeCacheLRUEviction: the capacity bound evicts least-recently
// used entries.
func TestShapeCacheLRUEviction(t *testing.T) {
	lat := lattice.Default()
	cache := NewShapeCache(2)
	mk := func(src string) *pgraph.FP {
		return pgraph.Fingerprint(constraints.MustParseSet(src), lat)
	}
	fps := []*pgraph.FP{
		mk("A.in_stack0 <= int"),
		mk("B.in_stack0 <= ptr\nB.in_stack4 <= int"),
		mk("C.out_eax <= num32\nC.in_eax <= C.out_eax"),
	}
	roots := []constraints.Var{"A", "B", "C"}
	for i, fp := range fps {
		cache.SketchFor(fp, roots[i], -1, func(constraints.Var) *Sketch { return NewTop(lat) })
	}
	if cache.Len() != 2 {
		t.Fatalf("len = %d, want 2 (capacity bound)", cache.Len())
	}
	// A (oldest) must have been evicted; B and C must still hit.
	rebuilt := false
	cache.SketchFor(fps[0], "A", -1, func(constraints.Var) *Sketch { rebuilt = true; return NewTop(lat) })
	if !rebuilt {
		t.Error("evicted entry still served")
	}
}
