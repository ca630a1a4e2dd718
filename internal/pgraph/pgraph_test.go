package pgraph

import (
	"testing"

	"retypd/internal/constraints"
	"retypd/internal/label"
	"retypd/internal/lattice"
)

func mustDTV(t *testing.T, s string) constraints.DTV {
	t.Helper()
	d, err := constraints.ParseDTV(s)
	if err != nil {
		t.Fatalf("ParseDTV(%q): %v", s, err)
	}
	return d
}

func buildGraph(t *testing.T, text string) *Graph {
	t.Helper()
	cs, err := constraints.ParseSet(text)
	if err != nil {
		t.Fatalf("ParseSet: %v", err)
	}
	g := Build(cs, lattice.Default())
	g.Saturate()
	return g
}

func assertProves(t *testing.T, g *Graph, l, r string) {
	t.Helper()
	if !g.Proves(mustDTV(t, l), mustDTV(t, r)) {
		t.Errorf("expected ⊢ %s ⊑ %s", l, r)
	}
}

func assertNotProves(t *testing.T, g *Graph, l, r string) {
	t.Helper()
	if g.Proves(mustDTV(t, l), mustDTV(t, r)) {
		t.Errorf("unexpected ⊢ %s ⊑ %s", l, r)
	}
}

// TestFigure4 reproduces the two aliased-pointer copy programs of
// Figure 4 / §3.3. Both constraint sets must entail X ⊑ Y; the naive
// unary Ptr(·) constructor cannot type both, but the split
// .load/.store capabilities with S-POINTER can.
func TestFigure4(t *testing.T) {
	// f(): p = q; *p = x; y = *q;
	c1 := buildGraph(t, `
		Q <= P
		X <= P.store
		Q.load <= Y
	`)
	assertProves(t, c1, "X", "Y")

	// g(): p = q; *q = x; y = *p;
	c2 := buildGraph(t, `
		Q <= P
		X <= Q.store
		P.load <= Y
	`)
	assertProves(t, c2, "X", "Y")

	// The reverse flows must NOT be derivable.
	assertNotProves(t, c1, "Y", "X")
	assertNotProves(t, c2, "Y", "X")
}

// TestFigure4SubtypeChain checks the intermediate links of the §3.3
// derivation chains explicitly.
func TestFigure4SubtypeChain(t *testing.T) {
	g := buildGraph(t, `
		Q <= P
		X <= P.store
		Q.load <= Y
	`)
	// X ⊑ P.store ⊑ Q.store ⊑ Q.load ⊑ Y
	assertProves(t, g, "P.store", "Q.store")
	assertProves(t, g, "Q.store", "Q.load")
	assertProves(t, g, "X", "P.store")
}

// TestFigure14 reproduces the saturation example of Figure 14: with
// C = {y ⊑ p, p ⊑ x, A ⊑ x.store, y.load ⊑ B}, the lazy S-POINTER rule
// must add the dashed shortcut edge x.store⊕ → y.load⊕, and A ⊑ B must
// become derivable.
func TestFigure14(t *testing.T) {
	g := buildGraph(t, `
		y <= p
		p <= x
		A <= x.store
		y.load <= B
	`)
	from, ok := g.NodeOf(mustDTV(t, "x.store"), label.Covariant)
	if !ok {
		t.Fatal("missing node (x.store, ⊕)")
	}
	to, ok := g.NodeOf(mustDTV(t, "y.load"), label.Covariant)
	if !ok {
		t.Fatal("missing node (y.load, ⊕)")
	}
	if !g.HasEps(from, to) {
		t.Error("saturation did not add the Figure 14 edge x.store⁺ → y.load⁺")
	}
	assertProves(t, g, "A", "B")
	assertNotProves(t, g, "B", "A")
}

// TestPointerRoundTrip: writing through a pointer and reading it back
// must not be able to subvert the type system, but must relate the
// written value to the read value (S-POINTER consistency).
func TestPointerRoundTrip(t *testing.T) {
	g := buildGraph(t, `
		A <= p.store
		p.load <= B
	`)
	assertProves(t, g, "A", "B")
	assertNotProves(t, g, "B", "A")
}

// TestContravariantIn: function inputs are contravariant — a subtype of
// a function type requires a supertype relationship on inputs.
func TestContravariantIn(t *testing.T) {
	g := buildGraph(t, `
		F <= G
		X <= G.in_stack0
		F.in_stack0 <= Y
	`)
	// F ⊑ G entails G.in ⊑ F.in, so X ⊑ G.in ⊑ F.in ⊑ Y.
	assertProves(t, g, "G.in_stack0", "F.in_stack0")
	assertProves(t, g, "X", "Y")
	assertNotProves(t, g, "F.in_stack0", "G.in_stack0")
}

// TestCovariantOut: outputs propagate covariantly.
func TestCovariantOut(t *testing.T) {
	g := buildGraph(t, `
		F <= G
		X <= F.out_eax
		G.out_eax <= Y
	`)
	assertProves(t, g, "F.out_eax", "G.out_eax")
	assertProves(t, g, "X", "Y")
}

// TestTransitivityAndFields: basic S-TRANS and S-FIELD behaviour.
func TestTransitivityAndFields(t *testing.T) {
	g := buildGraph(t, `
		A <= B
		B <= C
		C.σ32@0 <= D
	`)
	assertProves(t, g, "A", "C")
	assertProves(t, g, "A.σ32@0", "D")
	assertNotProves(t, g, "D", "A.σ32@0")
	// Reflexivity holds even for unseen variables.
	assertProves(t, g, "Z.load", "Z.load")
}

// TestNoFalseEntailments: unrelated variables must stay unrelated even
// after saturation (guards against over-unification, §2.5).
func TestNoFalseEntailments(t *testing.T) {
	g := buildGraph(t, `
		A <= M.store
		B <= N.store
		M.load <= C
		N.load <= D
	`)
	assertProves(t, g, "A", "C")
	assertProves(t, g, "B", "D")
	assertNotProves(t, g, "A", "D")
	assertNotProves(t, g, "B", "C")
	assertNotProves(t, g, "A", "B")
}

// TestRecursiveConstraintEntailment: recursive constraint sets entail
// unboundedly deep judgements (the pushdown system encodes infinitely
// many consequences, Theorem 5.1).
func TestRecursiveConstraintEntailment(t *testing.T) {
	g := buildGraph(t, `
		F.in_stack0 <= t
		t.load.σ32@0 <= t
		t.load.σ32@4 <= int
	`)
	assertProves(t, g, "F.in_stack0.load.σ32@4", "int")
	assertProves(t, g, "F.in_stack0.load.σ32@0.load.σ32@4", "int")
	assertProves(t, g, "F.in_stack0.load.σ32@0.load.σ32@0.load.σ32@4", "int")
	assertNotProves(t, g, "F.in_stack0.load.σ32@8", "int")
}

// TestSimplifyEliminatesInternals: simplification relative to
// interesting variables must produce a set over only those variables
// (plus fresh existentials) that still entails the interesting
// consequences (Definition 5.1).
func TestSimplifyEliminatesInternals(t *testing.T) {
	cs := constraints.MustParseSet(`
		F.in_stack0 <= a
		a <= b
		b.load.σ32@0 <= c
		c <= b
		b.load.σ32@4 <= int
		int <= F.out_eax
	`)
	lat := lattice.Default()
	g := Build(cs, lat)
	res := g.Simplify(func(v constraints.Var) bool { return v == "F" })

	for _, c := range res.Constraints.Subtypes() {
		for _, d := range []constraints.DTV{c.L, c.R} {
			switch string(d.Base()) {
			case "a", "b", "c":
				t.Errorf("internal variable %s leaked into simplification: %s", d.Base(), c)
			}
		}
	}

	// The simplified set must entail the same interesting judgements.
	g2 := Build(res.Constraints, lat)
	g2.Saturate()
	for _, want := range [][2]string{
		{"F.in_stack0.load.σ32@4", "int"},
		{"F.in_stack0.load.σ32@0.load.σ32@4", "int"},
		{"F.in_stack0.load.σ32@0.load.σ32@0.load.σ32@4", "int"},
		{"int", "F.out_eax"},
	} {
		if !g2.Proves(mustDTV(t, want[0]), mustDTV(t, want[1])) {
			t.Errorf("simplified set lost %s ⊑ %s\nsimplified:\n%s", want[0], want[1], res.Constraints)
		}
	}
	// And must not invent judgements the original lacks.
	if g2.Proves(mustDTV(t, "F.out_eax"), mustDTV(t, "int")) {
		t.Errorf("simplified set invented F.out_eax ⊑ int\n%s", res.Constraints)
	}
	if g2.Proves(mustDTV(t, "F.in_stack0.load.σ32@8"), mustDTV(t, "int")) {
		t.Errorf("simplified set invented σ32@8 judgement\n%s", res.Constraints)
	}
}

// TestSimplifyPolymorphicIdentity: the identity function's scheme must
// relate input to output without naming internals (§5.1's motivating
// example shape: ∀τ. (τ.in ⊑ τ.out)).
func TestSimplifyPolymorphicIdentity(t *testing.T) {
	cs := constraints.MustParseSet(`
		id.in_stack0 <= v
		v <= id.out_eax
	`)
	lat := lattice.Default()
	g := Build(cs, lat)
	res := g.Simplify(func(v constraints.Var) bool { return v == "id" })
	g2 := Build(res.Constraints, lat)
	if !g2.Proves(mustDTV(t, "id.in_stack0"), mustDTV(t, "id.out_eax")) {
		t.Errorf("identity scheme lost in ⊑ out:\n%s", res.Constraints)
	}
}

// TestSimplifyContravariantFlow: simplification must preserve flows
// that pass through contravariant labels.
func TestSimplifyContravariantFlow(t *testing.T) {
	cs := constraints.MustParseSet(`
		g.in_stack0 <= w
		A <= w.store
		w.load <= g.out_eax
	`)
	lat := lattice.Default()
	g := Build(cs, lat)
	res := g.Simplify(func(v constraints.Var) bool { return v == "g" || v == "A" })
	g2 := Build(res.Constraints, lat)
	if !g2.Proves(mustDTV(t, "A"), mustDTV(t, "g.out_eax")) {
		t.Errorf("lost A ⊑ g.out_eax through pointer round trip:\n%s", res.Constraints)
	}
}

func TestProvesConstants(t *testing.T) {
	g := buildGraph(t, `
		x <= int
		int <= y
	`)
	assertProves(t, g, "x", "int")
	assertProves(t, g, "int", "y")
	assertProves(t, g, "x", "y")
}

// TestNodeOfAbsent: NodeOf reports false for a DTV the graph never saw
// and for a present DTV under the variance it was not created with, so
// the packed (DTV, variance) key never aliases a neighbouring entry.
func TestNodeOfAbsent(t *testing.T) {
	a := constraints.BaseDTV("nodeof_a")
	b := constraints.BaseDTV("nodeof_b") // interned next to a
	g := graphPool.Get().(*Graph)
	g.reset(lattice.Default())
	defer g.Release()
	id := g.node(a, label.Covariant)

	if got, ok := g.NodeOf(a, label.Covariant); !ok || got != id {
		t.Fatalf("NodeOf(a, ⊕) = %d, %v; want %d, true", got, ok, id)
	}
	if _, ok := g.NodeOf(a, label.Contravariant); ok {
		t.Error("NodeOf(a, ⊖) found a node that was never created")
	}
	for _, v := range []label.Variance{label.Covariant, label.Contravariant} {
		if _, ok := g.NodeOf(b, v); ok {
			t.Errorf("NodeOf(b, %s) found a node for an absent DTV", v)
		}
	}
}
