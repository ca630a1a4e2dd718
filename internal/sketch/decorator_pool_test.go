package sketch

import (
	"testing"

	"retypd/internal/constraints"
	"retypd/internal/lattice"
	"retypd/internal/pgraph"
)

// decorateOnce builds the shape sketch for v and decorates it with a
// decorator over cs's saturated graph, releasing all scratch.
func decorateOnce(t *testing.T, src string, v constraints.Var) string {
	t.Helper()
	cs := constraints.MustParseSet(src)
	lat := lattice.Default()
	sh := NewBuilder(cs, lat)
	defer sh.Release()
	g := pgraph.Build(cs, lat)
	defer g.Release()
	dec := NewDecorator(g)
	defer dec.Release()
	sk := sh.SketchFor(v, -1)
	dec.Decorate(sk, v)
	return sk.String()
}

// TestDecoratorPoolReuse: a decorator drawn from the pool must behave
// exactly like a fresh one — in particular, the reverse-ε table of a
// previous (larger) graph must not leak into the next decoration.
func TestDecoratorPoolReuse(t *testing.T) {
	// A wide set first, so the pooled revEps table is grown and filled
	// with stale spines before the small decorations reuse it.
	const wide = `
		F.in_0 <= A
		A.load.σ4@0 <= B
		B <= int
		A.load.σ4@4 <= C
		C <= uint
		G.in_0 <= A
		H.in_0 <= C
		F.out_eax <= int
	`
	const small = `
		F.in_0 <= P
		P <= int
		F.out_eax <= uint
	`
	want := decorateOnce(t, small, "F")
	for i := 0; i < 3; i++ {
		decorateOnce(t, wide, "F")
		if got := decorateOnce(t, small, "F"); got != want {
			t.Fatalf("iteration %d: pooled decorator diverged from fresh:\n got:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestDecoratorReuseMatchesFresh: one Decorator reused on a large graph
// and then on a small one decorates the small sketch exactly like a
// fresh decorator, and every walk leaves its seen bitset all zero, so
// no stale (state, node) bit survives into the next walk.
func TestDecoratorReuseMatchesFresh(t *testing.T) {
	const large = `
		F.in_stack0 <= A
		A.load.σ32@0 <= B
		B <= int
		A.load.σ32@4 <= C
		C <= uint
		A.load.σ32@8 <= A
		F.in_stack4 <= D
		D.store.σ8@0 <= E
		num8 <= E
		G.in_stack0 <= A
		F.out_eax <= int
	`
	const small = `
		F.in_stack0 <= P
		P <= int
		F.out_eax <= uint
	`
	lat := lattice.Default()
	decorate := func(d *Decorator, src string) string {
		cs := constraints.MustParseSet(src)
		sh := NewBuilder(cs, lat)
		defer sh.Release()
		g := pgraph.Build(cs, lat)
		defer g.Release()
		d.reset(g)
		sk := sh.SketchFor("F", -1)
		d.Decorate(sk, "F")
		for i, w := range d.seen {
			if w != 0 {
				t.Fatalf("seen word %d = %#x after Decorate, want 0", i, w)
			}
		}
		return sk.String()
	}
	want := decorate(&Decorator{}, small)
	reused := &Decorator{}
	decorate(reused, large)
	if len(reused.seen) == 0 {
		t.Fatal("large decoration grew no seen bitset")
	}
	if got := decorate(reused, small); got != want {
		t.Fatalf("reused decorator diverged from fresh:\n got:\n%s\nwant:\n%s", got, want)
	}
}
