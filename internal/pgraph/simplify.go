package pgraph

import (
	"fmt"
	"slices"
	"sort"

	"retypd/internal/constraints"
	"retypd/internal/intern"
	"retypd/internal/label"
)

// SimplifyResult is a simplified constraint set together with the fresh
// existential variables synthesized for internal states (the τ of
// Figure 2).
type SimplifyResult struct {
	Constraints *constraints.Set
	Existential []constraints.Var
}

// Simplify computes a simplification of the constraint set the graph
// was built from, relative to the interesting base variables (§5.1,
// Definition 5.1): a small constraint set that entails the same
// interesting consequences. Lattice constants are always interesting.
//
// The algorithm walks the saturated graph's phase automaton (pops, then
// interleavable ε edges, then pushes — the reduced transition sequences
// of Theorem 5.1), keeps the states that lie on some anchored canonical
// path, names internal states with fresh existential variables, and
// emits one constraint per live ε edge: forward at covariant states,
// flipped at contravariant states (the variance partition of
// Lemma D.6).
func (g *Graph) Simplify(interesting func(constraints.Var) bool) *SimplifyResult {
	g.Saturate()

	// anchor[id] reports whether node id's base variable is interesting
	// or a lattice constant; interesting runs once per distinct base.
	n := len(g.nodes)
	anchor := make([]bool, n)
	anchorOf := map[intern.Sym]bool{}
	for id, nd := range g.nodes {
		b := nd.DTV.BaseSym()
		a, ok := anchorOf[b]
		if !ok {
			_, a = g.lat.ElemSym(b)
			a = a || (interesting != nil && interesting(constraints.Var(intern.StringOf(b))))
			anchorOf[b] = a
		}
		anchor[id] = a
	}

	// Anchor states: base-variable nodes of interesting variables.
	var anchors []NodeID
	for id, nd := range g.nodes {
		if anchor[id] && nd.DTV.IsBase() {
			anchors = append(anchors, NodeID(id))
		}
	}

	// Phase automaton liveness. State = node*2 + phase.
	if cap(g.simpMarks) < 4*n {
		g.simpMarks = make([]bool, 4*n)
	}
	marks := g.simpMarks[:4*n]
	clear(marks)
	fwd, bwd := marks[:2*n], marks[2*n:]
	var stack []int32
	pushState := func(s int32) {
		if !fwd[s] {
			fwd[s] = true
			stack = append(stack, s)
		}
	}
	for _, a := range anchors {
		pushState(int32(a) * 2) // phase 0
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id, phase := NodeID(s/2), s%2
		for _, succ := range g.eps[id] {
			pushState(int32(succ)*2 + phase)
		}
		if phase == 0 {
			for _, e := range g.pops[id] {
				pushState(int32(e.to) * 2)
			}
		}
		for _, e := range g.pushes[id] {
			pushState(int32(e.to)*2 + 1)
		}
	}

	// Backward liveness from anchor acceptors (either phase), over the
	// reverse adjacency.
	revEps, revPop, revPush := &g.simpRevEps, &g.simpRevPop, &g.simpRevPush
	revEps.build(n, func(yield func(from, to NodeID)) {
		for id, succs := range g.eps {
			for _, succ := range succs {
				yield(NodeID(id), succ)
			}
		}
	})
	revPop.build(n, func(yield func(from, to NodeID)) {
		for id, es := range g.pops {
			for _, e := range es {
				yield(NodeID(id), e.to)
			}
		}
	})
	revPush.build(n, func(yield func(from, to NodeID)) {
		for id, es := range g.pushes {
			for _, e := range es {
				yield(NodeID(id), e.to)
			}
		}
	})
	stack = stack[:0]
	pushBwd := func(s int32) {
		if fwd[s] && !bwd[s] {
			bwd[s] = true
			stack = append(stack, s)
		}
	}
	for _, a := range anchors {
		pushBwd(int32(a) * 2)
		pushBwd(int32(a)*2 + 1)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id, phase := NodeID(s/2), s%2
		for _, pred := range revEps.of(id) {
			pushBwd(int32(pred)*2 + phase)
		}
		if phase == 0 {
			for _, pred := range revPop.of(id) {
				pushBwd(int32(pred) * 2)
			}
		}
		if phase == 1 {
			for _, pred := range revPush.of(id) {
				pushBwd(int32(pred)*2 + 1)
				pushBwd(int32(pred) * 2)
			}
		}
	}
	live := func(id NodeID, phase int32) bool { return bwd[int32(id)*2+phase] }

	// Fresh existential variables, one per internal base variable that
	// appears in a live state. Both variances of a base share one fresh
	// variable: every emitted constraint is a judgement derivable from
	// C about that base variable, in either derivation polarity, so the
	// merge is entailment-preserving.
	//
	// existential[i] is the fresh variable τi, existentialSym[i] its
	// interned name; freshOf maps an internal base to its i.
	freshOf := map[intern.Sym]int32{}
	var existential []constraints.Var
	var existentialSym []intern.Sym
	freshFor := func(base intern.Sym) intern.Sym {
		if i, ok := freshOf[base]; ok {
			return existentialSym[i]
		}
		tv := constraints.Var(fmt.Sprintf("τ%d", len(existential)))
		freshOf[base] = int32(len(existential))
		existential = append(existential, tv)
		existentialSym = append(existentialSym, intern.Intern(string(tv)))
		return existentialSym[len(existentialSym)-1]
	}
	// names[id] memoizes nameOf for node id once named[id] is set.
	names := make([]constraints.DTV, n)
	named := make([]bool, n)
	nameOf := func(id NodeID) constraints.DTV {
		if named[id] {
			return names[id]
		}
		d := g.nodes[id].DTV
		if !anchor[id] {
			d = d.WithBaseSym(freshFor(d.BaseSym()))
		}
		names[id], named[id] = d, true
		return d
	}

	out := constraints.NewSet()
	// Deterministic edge order: by (from, to).
	var succs []NodeID
	for id := range g.nodes {
		from := NodeID(id)
		succs = append(succs[:0], g.eps[id]...)
		slices.Sort(succs)
		for _, to := range succs {
			if !((live(from, 0) && live(to, 0)) || (live(from, 1) && live(to, 1))) {
				continue
			}
			a, b := nameOf(from), nameOf(to)
			if a.Equal(b) {
				continue
			}
			if g.nodes[from].Var == label.Covariant {
				out.AddSub(a, b)
			} else {
				out.AddSub(b, a)
			}
		}
	}

	fresh := newFreshIndex(existential, existentialSym)
	res := &SimplifyResult{Constraints: compact(out, fresh), Existential: nil}
	// Recompute the existential list: compaction may eliminate some.
	used := make([]bool, len(existential))
	res.Constraints.EachSubtype(func(c constraints.Constraint) {
		if i, ok := fresh.of(c.L); ok {
			used[i] = true
		}
		if i, ok := fresh.of(c.R); ok {
			used[i] = true
		}
	})
	for i, tv := range existential {
		if used[i] {
			res.Existential = append(res.Existential, tv)
		}
	}
	return res
}

// revAdj is a reverse adjacency in compressed form: the predecessors
// of node v are adj[off[v]:off[v+1]].
type revAdj struct {
	off []int32
	adj []NodeID
}

// build fills r with the reverse of the n-node edge list that edges
// enumerates (it is enumerated twice: once to count, once to fill).
func (r *revAdj) build(n int, edges func(yield func(from, to NodeID))) {
	off := r.off[:0]
	for i := 0; i < n+2; i++ {
		off = append(off, 0)
	}
	edges(func(_, to NodeID) { off[to+2]++ })
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	// off[v+1] is now where v's predecessors start; filling advances it
	// to where they end, which is where v+1's start.
	total := int(off[n+1])
	if cap(r.adj) < total {
		r.adj = make([]NodeID, total)
	}
	adj := r.adj[:total]
	edges(func(from, to NodeID) {
		adj[off[to+1]] = from
		off[to+1]++
	})
	r.off, r.adj = off, adj
}

// of returns the predecessors of v.
func (r *revAdj) of(v NodeID) []NodeID { return r.adj[r.off[v]:r.off[v+1]] }

// freshIndex numbers the fresh existential variables τ0, τ1, … by
// their interned names, so compaction keys its per-variable state on
// dense indices instead of variable names.
type freshIndex struct {
	names []constraints.Var
	idx   map[intern.Sym]int32
}

func newFreshIndex(names []constraints.Var, syms []intern.Sym) freshIndex {
	idx := make(map[intern.Sym]int32, len(syms))
	for i, y := range syms {
		idx[y] = int32(i)
	}
	return freshIndex{names: names, idx: idx}
}

// of reports the fresh index of d's base variable.
func (f freshIndex) of(d constraints.DTV) (int32, bool) {
	i, ok := f.idx[d.BaseSym()]
	return i, ok
}

// compact eliminates fresh existential variables that occur only in
// chain position, replacing A ⊑ τ, τ ⊑ B pairs by A ⊑ B. A variable is
// eliminated when (a) it never occurs with a non-empty label path, and
// (b) the substitution does not grow the constraint count. To keep the
// substitution exact, each pass eliminates an independent set of
// candidates (no two adjacent through a bare constraint); passes repeat
// to a fixpoint. Elimination is entailment-preserving in both
// directions.
func compact(cs *constraints.Set, fresh freshIndex) *constraints.Set {
	type occ struct {
		in, out []constraints.Constraint
		seen    bool
		labeled bool
	}
	occs := make([]occ, len(fresh.names))
	selected := make([]bool, len(fresh.names))
	// bareSelected reports whether d is a bare selected fresh variable.
	bareSelected := func(d constraints.DTV) bool {
		if d.PathLen() != 0 {
			return false
		}
		i, ok := fresh.of(d)
		return ok && selected[i]
	}
	cur := cs
	for pass := 0; pass < 64; pass++ {
		clear(occs)
		clear(selected)
		cur.EachSubtype(func(c constraints.Constraint) {
			if i, ok := fresh.of(c.L); ok {
				o := &occs[i]
				o.seen = true
				if c.L.PathLen() > 0 {
					o.labeled = true
				} else {
					o.out = append(o.out, c)
				}
			}
			if i, ok := fresh.of(c.R); ok {
				o := &occs[i]
				o.seen = true
				if c.R.PathLen() > 0 {
					o.labeled = true
				} else {
					o.in = append(o.in, c)
				}
			}
		})
		// Candidates, sorted by variable name.
		var cands []int32
		for i := range occs {
			o := &occs[i]
			if o.seen && !o.labeled && len(o.in)*len(o.out) <= len(o.in)+len(o.out) {
				cands = append(cands, int32(i))
			}
		}
		sort.Slice(cands, func(i, j int) bool { return fresh.names[cands[i]] < fresh.names[cands[j]] })
		// Greedy independent set: skip candidates adjacent (via a bare
		// chain constraint) to an already selected one.
		adjacentSelected := func(o *occ) bool {
			for _, c := range o.in {
				if bareSelected(c.L) {
					return true
				}
			}
			for _, c := range o.out {
				if bareSelected(c.R) {
					return true
				}
			}
			return false
		}
		picked := false
		for _, v := range cands {
			if !adjacentSelected(&occs[v]) {
				selected[v] = true
				picked = true
			}
		}
		if !picked {
			break
		}
		next := constraints.NewSet()
		cur.EachSubtype(func(c constraints.Constraint) {
			if !bareSelected(c.L) && !bareSelected(c.R) {
				next.Insert(c)
			}
		})
		// Iterate cands in sorted order: the output set's insertion
		// order must be deterministic — it feeds scheme instantiation
		// and the fingerprint cache downstream.
		for _, v := range cands {
			if !selected[v] {
				continue
			}
			o := &occs[v]
			for _, cin := range o.in {
				for _, cout := range o.out {
					if !cin.L.Equal(cout.R) {
						next.AddSub(cin.L, cout.R)
					}
				}
			}
		}
		cur = next
	}
	return cur
}
