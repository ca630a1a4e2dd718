package pgraph

import (
	"fmt"
	"testing"

	"retypd/internal/constraints"
	"retypd/internal/intern"
	"retypd/internal/lattice"
	"retypd/internal/lru"
)

// leafSet builds the constraint set of a toy leaf procedure over base
// variable name, structurally identical for every name.
func leafSet(name string) *constraints.Set {
	return constraints.MustParseSet(fmt.Sprintf(`
		%[1]s.in_stack0 <= %[1]s!frm!stack0
		%[1]s!frm!stack0 <= %[1]s!v1
		%[1]s!v1.load.σ32@0 <= %[1]s!v2
		%[1]s!v2 <= int
		int <= %[1]s.out_eax
	`, name))
}

// TestFingerprintRenamingInvariant: isomorphic sets (differing only in
// non-constant variable names) share a fingerprint; structural changes
// break it.
func TestFingerprintRenamingInvariant(t *testing.T) {
	lat := lattice.Default()
	fa := Fingerprint(leafSet("procA"), lat)
	fb := Fingerprint(leafSet("procB"), lat)
	if !fa.Usable() || !fb.Usable() {
		t.Fatal("fingerprints must be usable")
	}
	ka, oka := fa.KeyFor("procA")
	kb, okb := fb.KeyFor("procB")
	if !oka || !okb {
		t.Fatal("roots must be fingerprinted")
	}
	if ka != kb {
		t.Errorf("isomorphic sets got different keys:\n%s\n%s", ka, kb)
	}

	// A different constant breaks the fingerprint (constants are part
	// of the canonical identity, not renamed).
	fc := Fingerprint(constraints.MustParseSet(`
		procA.in_stack0 <= procA!frm!stack0
		procA!frm!stack0 <= procA!v1
		procA!v1.load.σ32@0 <= procA!v2
		procA!v2 <= uint
		uint <= procA.out_eax
	`), lat)
	kc, _ := fc.KeyFor("procA")
	if kc == ka {
		t.Error("sets with different lattice constants must not share a key")
	}

	// A different structure breaks it too.
	fd := Fingerprint(constraints.MustParseSet(`
		procA.in_stack0 <= procA!frm!stack0
		procA!frm!stack0 <= procA!v1
		procA!v1.load.σ32@4 <= procA!v2
		procA!v2 <= int
		int <= procA.out_eax
	`), lat)
	kd, _ := fd.KeyFor("procA")
	if kd == ka {
		t.Error("sets with different labels must not share a key")
	}
}

// TestFingerprintSeparatesLattices: the same constraint text under a
// different Λ must not share a cache key — saturation and
// simplification depend on the lattice's ordering.
func TestFingerprintSeparatesLattices(t *testing.T) {
	cs := leafSet("procA")
	defKey, ok := Fingerprint(cs, lattice.Default()).KeyFor("procA")
	if !ok {
		t.Fatal("default-lattice fingerprint unusable")
	}
	other := lattice.NewBuilder().Below("int", "num32").MustBuild()
	otherKey, ok := Fingerprint(cs, other).KeyFor("procA")
	if !ok {
		t.Fatal("custom-lattice fingerprint unusable")
	}
	if defKey == otherKey {
		t.Error("fingerprint ignores the lattice — cache entries would cross-serve between lattices")
	}
}

// TestKeyForUnknownRoot: a root that never occurs in the set cannot be
// cached against it.
func TestKeyForUnknownRoot(t *testing.T) {
	lat := lattice.Default()
	fp := Fingerprint(leafSet("procA"), lat)
	if _, ok := fp.KeyFor("procZ"); ok {
		t.Error("KeyFor must fail for a variable outside the set")
	}
}

// TestSimplifyCacheHitEqualsFreshSimplify: a cache hit rehydrated for a
// different procedure must equal simplifying that procedure's own set
// directly — the soundness property of the memo.
func TestSimplifyCacheHitEqualsFreshSimplify(t *testing.T) {
	lat := lattice.Default()
	cache := NewSimplifyCache(0)

	simplify := func(name string) (*SimplifyResult, lru.Outcome) {
		cs := leafSet(name)
		fp := Fingerprint(cs, lat)
		var g *Graph
		build := func() *Graph {
			if g == nil {
				g = Build(cs, lat)
				g.Saturate()
			}
			return g
		}
		return cache.Simplify(fp, constraints.Var(name), build)
	}

	a, oa := simplify("procA")
	b, ob := simplify("procB") // isomorphic: must be a hit
	if oa != lru.Miss || ob != lru.Hit {
		t.Fatalf("expected a miss then a hit, got %v, %v", oa, ob)
	}

	// Fresh, uncached simplification of procB's set.
	gb := Build(leafSet("procB"), lat)
	gb.Saturate()
	fresh := gb.Simplify(func(v constraints.Var) bool { return v == "procB" })

	if b.Constraints.String() != fresh.Constraints.String() {
		t.Errorf("cache hit diverged from fresh simplify:\nhit:\n%s\nfresh:\n%s",
			b.Constraints, fresh.Constraints)
	}
	if len(b.Existential) != len(fresh.Existential) {
		t.Errorf("existential lists differ: %v vs %v", b.Existential, fresh.Existential)
	}
	// And the hit must actually be renamed: no procA variable may leak.
	for _, c := range b.Constraints.Subtypes() {
		for _, d := range []constraints.DTV{c.L, c.R} {
			if d.Base() == "procA" {
				t.Errorf("procA leaked into procB's scheme: %s", c)
			}
		}
	}
	_ = a
}

// TestSimplifyCacheLRUEviction: the cache respects its capacity bound.
func TestSimplifyCacheLRUEviction(t *testing.T) {
	lat := lattice.Default()
	cache := NewSimplifyCache(2)
	misses := 0
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("p%d", i)
		// Vary structure per i so every entry is a distinct key.
		cs := constraints.MustParseSet(fmt.Sprintf(`
			%[1]s.in_stack0 <= %[1]s!v
			%[1]s!v.load.σ32@%[2]d <= int
		`, name, 4*i))
		fp := Fingerprint(cs, lat)
		if _, o := cache.Simplify(fp, constraints.Var(name), func() *Graph {
			g := Build(cs, lat)
			g.Saturate()
			return g
		}); o == lru.Miss {
			misses++
		}
	}
	if n := cache.Len(); n != 2 {
		t.Errorf("cache holds %d entries, capacity 2", n)
	}
	if misses != 5 {
		t.Errorf("expected 5 misses, got %d", misses)
	}
}

// TestNilCacheFallsBack: a nil cache must still simplify.
func TestNilCacheFallsBack(t *testing.T) {
	lat := lattice.Default()
	cs := leafSet("procA")
	fp := Fingerprint(cs, lat)
	var c *SimplifyCache
	res, o := c.Simplify(fp, "procA", func() *Graph {
		g := Build(cs, lat)
		g.Saturate()
		return g
	})
	if res == nil || res.Constraints.Len() == 0 {
		t.Fatal("nil cache lost the simplification result")
	}
	if o != lru.Bypass {
		t.Errorf("nil cache reported outcome %v, want Bypass", o)
	}
}

// TestRenameMapExposure: the canonical↔local rename bijection exposed
// for the phase-2 shape memo — isomorphic sets assign the same
// canonical index to corresponding variables, CanonicalIndex/LocalOf
// invert each other, and constants are never renamed.
func TestRenameMapExposure(t *testing.T) {
	lat := lattice.Default()
	fa := Fingerprint(leafSet("alpha"), lat)
	fb := Fingerprint(leafSet("beta"), lat)
	if !fa.Usable() || !fb.Usable() {
		t.Fatal("fingerprints unusable")
	}
	if fa.RenameLen() != fb.RenameLen() {
		t.Fatalf("isomorphic sets renamed %d vs %d variables", fa.RenameLen(), fb.RenameLen())
	}
	if fa.RenameLen() == 0 {
		t.Fatal("no variables renamed")
	}
	// Corresponding variables get the same canonical index.
	pairs := [][2]string{
		{"alpha", "beta"},
		{"alpha!frm!stack0", "beta!frm!stack0"},
		{"alpha!v1", "beta!v1"},
		{"alpha!v2", "beta!v2"},
	}
	for _, p := range pairs {
		ia, oka := fa.CanonicalIndex(intern.Intern(p[0]))
		ib, okb := fb.CanonicalIndex(intern.Intern(p[1]))
		if !oka || !okb || ia != ib {
			t.Errorf("canonical index of %q (%d,%v) != %q (%d,%v)", p[0], ia, oka, p[1], ib, okb)
		}
		// LocalOf inverts CanonicalIndex.
		if y, ok := fa.LocalOf(ia); !ok || y != intern.Intern(p[0]) {
			t.Errorf("LocalOf(%d) = %v, want %q", ia, y, p[0])
		}
	}
	// Constants are not in the rename map; out-of-range indices fail.
	if _, ok := fa.CanonicalIndex(intern.Intern("int")); ok {
		t.Error("lattice constant was renamed")
	}
	if _, ok := fa.LocalOf(uint32(fa.RenameLen())); ok {
		t.Error("LocalOf accepted an out-of-range index")
	}
}
