// Package pgraph implements the pushdown-system encoding of constraint
// entailment at the core of Retypd (Noonan et al., PLDI 2016, §5 and
// Appendix D).
//
// Proofs in the deduction system of Figure 3 have a normal form
// (Theorem B.1) that corresponds to transition sequences of an
// unconstrained pushdown system. The graph built here encodes those
// transition sequences:
//
//   - a node is a pair (d, s) of a derived type variable d (drawn from
//     the prefix closure of the constraint set) and a variance
//     s ∈ {⊕,⊖} — the variance of the pending stack suffix at that point
//     of a derivation;
//   - for every constraint α ⊑ β there are ε-edges (α,⊕)→(β,⊕) (the
//     axiom used covariantly) and (β,⊖)→(α,⊖) (contravariantly);
//   - for every derived type variable α.ℓ there is a pop edge
//     (α,s) →pop ℓ→ (α.ℓ, s·⟨ℓ⟩) that moves a label from the stack into
//     the variable, and the inverse push edge.
//
// Saturation (Algorithm D.2) adds shortcut ε-edges so that every
// derivable judgement X.u ⊑ Y.v between interesting variables is
// witnessed by a canonical path: pops first, then ε-edges, then pushes.
// The infinite S-POINTER rule family (α.store ⊑ α.load for every α) is
// instantiated lazily during saturation: rewriting the stack top between
// .store (contravariant) and .load (covariant) flips the suffix
// variance, so a reaching-push recorded at (q,⊖) is transferred, with
// the label dualized, to (q,⊕). That variance flip is exactly what
// produces the dashed x.store⊕ → y.load⊕ edge of Figure 14.
//
// Nodes are indexed by one packed integer, uint64(dtv)<<1 | variance,
// over the interned DTV handle, and the Graph itself is pooled: Build draws a
// recycled Graph whose node/edge storage and saturation scratch retain
// their previous capacity, and Release returns it once the caller is
// done. The solver releases one graph per SCC (phase F.1) and one per
// procedure (phase F.2), so a steady-state inference run allocates
// graph storage only while the high-water mark still grows.
package pgraph

import (
	"sort"
	"sync"

	"retypd/internal/constraints"
	"retypd/internal/label"
	"retypd/internal/lattice"
)

// NodeID indexes a node in the graph.
type NodeID int32

// Node is a (derived type variable, variance) pair.
type Node struct {
	DTV constraints.DTV
	Var label.Variance
}

// nodeKey packs (d, v) into the integer that keys Graph.index.
func nodeKey(d constraints.DTV, v label.Variance) uint64 {
	k := uint64(d.Key()) << 1
	if v == label.Covariant {
		k |= 1
	}
	return k
}

// noConst marks a constOf entry whose node is not a lattice constant.
const noConst lattice.Elem = -1

// edge is a labeled pop/push edge. lid is the label's dense per-graph
// id (see labelID; the label is lbls[lid]), which is what the
// saturation fixpoint compares and packs into reach keys instead of
// the full Label value.
type edge struct {
	lid uint32
	to  NodeID
}

// Graph is the (saturated) constraint graph for one constraint set.
type Graph struct {
	lat *lattice.Lattice

	nodes []Node
	index map[uint64]NodeID // keyed by nodeKey

	eps    [][]NodeID // ε successors
	epsSet map[int64]struct{}
	pops   [][]edge // pop successors (label read)
	pushes [][]edge // push successors (label emitted)

	// constOf[n] is the lattice element of node n when n is a lattice
	// constant used covariantly ((κ,⊕)), noConst otherwise.
	constOf []lattice.Elem

	saturated bool

	// lblOf/lbls assign dense per-graph ids to the labels appearing on
	// pop/push edges, reset per Build so ids are deterministic for a
	// given constraint set. Ids 0 and 1 are always .load and .store, so
	// the saturation loop tests pointer-access labels and flips duals
	// with integer arithmetic.
	lblOf map[label.Label]uint32
	lbls  []label.Label

	// Saturation scratch, retained across pool cycles. satReach[n] is
	// the node's reach set as a sorted slice of packed
	// (label id << 32 | origin node) keys with binary-search
	// membership — the former per-node map[reach]struct{}, now flat,
	// allocation-light and cache-friendly.
	satReach   [][]uint64
	satScratch []uint64 // merge buffer, swapped with grown sets

	// Simplify scratch, retained across pool cycles: phase-state marks
	// and the reverse ε/pop/push adjacency.
	simpMarks                           []bool
	simpRevEps, simpRevPop, simpRevPush revAdj
	satWork                             []NodeID
	satIn                               []bool
}

// graphPool recycles Graphs between Build/Release cycles.
var graphPool = sync.Pool{New: func() any {
	return &Graph{
		index:  map[uint64]NodeID{},
		epsSet: map[int64]struct{}{},
		lblOf:  map[label.Label]uint32{},
	}
}}

// resetNested truncates a slice-of-slices while keeping every inner
// slice's capacity available for reuse.
func resetNested[T any](s [][]T) [][]T {
	for i := range s {
		s[i] = s[i][:0]
	}
	return s[:0]
}

// growNested extends a reset slice-of-slices by one empty entry,
// re-exposing a recycled inner slice when capacity allows.
func growNested[T any](s [][]T) [][]T {
	if n := len(s); n < cap(s) {
		return s[:n+1]
	}
	return append(s, nil)
}

// reset prepares a pooled graph for a fresh Build.
func (g *Graph) reset(lat *lattice.Lattice) {
	g.lat = lat
	g.nodes = g.nodes[:0]
	clear(g.index)
	clear(g.epsSet)
	g.constOf = g.constOf[:0]
	g.eps = resetNested(g.eps)
	g.pops = resetNested(g.pops)
	g.pushes = resetNested(g.pushes)
	g.saturated = false
	for i := range g.satReach {
		g.satReach[i] = g.satReach[i][:0]
	}
	g.satWork = g.satWork[:0]
	clear(g.lblOf)
	g.lbls = append(g.lbls[:0], label.Load(), label.Store())
	g.lblOf[label.Load()] = 0
	g.lblOf[label.Store()] = 1
}

// labelID returns l's dense per-graph id, assigning the next one on
// first use. Ids 0/1 are pre-assigned to .load/.store by reset.
func (g *Graph) labelID(l label.Label) uint32 {
	if id, ok := g.lblOf[l]; ok {
		return id
	}
	id := uint32(len(g.lbls))
	g.lbls = append(g.lbls, l)
	g.lblOf[l] = id
	return id
}

// Release returns the graph to the package pool for reuse by a later
// Build. The caller must not use g (or anything aliasing its node
// storage) afterwards. Releasing is optional — an unreleased graph is
// simply collected — and must happen at most once.
func (g *Graph) Release() {
	graphPool.Put(g)
}

// Build constructs the (unsaturated) graph for cs. Type constants are
// the base variables whose name matches an element of lat; they are
// always interesting. Pointer-sibling completion is applied: whenever a
// node α.load exists, α.store is added too (and vice versa), matching
// the unconditional ∆ptr rule family of Definition D.3.
func Build(cs *constraints.Set, lat *lattice.Lattice) *Graph {
	g := graphPool.Get().(*Graph)
	g.reset(lat)
	cs.EachSubtype(func(c constraints.Constraint) {
		l, r := c.L, c.R
		g.registerDTV(l)
		g.registerDTV(r)
		if l != r {
			g.addEps(g.node(l, label.Covariant), g.node(r, label.Covariant))
			g.addEps(g.node(r, label.Contravariant), g.node(l, label.Contravariant))
		}
	})
	return g
}

// Lattice returns the lattice the graph was built with.
func (g *Graph) Lattice() *lattice.Lattice { return g.lat }

// registerDTV interns d, its prefixes, pointer siblings, and both
// variances of each, wiring pop/push edges.
func (g *Graph) registerDTV(d constraints.DTV) {
	g.node(d, label.Covariant)
	g.node(d, label.Contravariant)
}

// node interns (d, v), creating prefix nodes and pop/push edges on the
// way, plus pointer-sibling nodes for load/store.
func (g *Graph) node(d constraints.DTV, v label.Variance) NodeID {
	key := nodeKey(d, v)
	if id, ok := g.index[key]; ok {
		return id
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{DTV: d, Var: v})
	g.constOf = append(g.constOf, noConst)
	g.index[key] = id
	g.eps = growNested(g.eps)
	g.pops = growNested(g.pops)
	g.pushes = growNested(g.pushes)

	if parent, last, ok := d.Parent(); ok {
		// Wire pop/push edges between (parent, v·⟨last⟩) and (d, v):
		// pop: (parent, pv) → (d, pv·⟨last⟩) with pv·⟨last⟩ = v.
		pv := v.Mul(last.Variance())
		pid := g.node(parent, pv)
		lid := g.labelID(last)
		g.pops[pid] = append(g.pops[pid], edge{lid: lid, to: id})
		g.pushes[id] = append(g.pushes[id], edge{lid: lid, to: pid})
		if last.IsPointerAccess() {
			// Pointer-sibling completion: α.load ⇒ α.store and vice
			// versa, in the dual variance (load is ⊕, store is ⊖).
			g.node(parent.Append(last.PointerDual()), v.Mul(label.Contravariant))
		}
	} else if v == label.Covariant {
		if e, ok := g.lat.ElemSym(d.BaseSym()); ok {
			g.constOf[id] = e
		}
	}
	return id
}

// NodeOf looks up (d, v) without creating it.
func (g *Graph) NodeOf(d constraints.DTV, v label.Variance) (NodeID, bool) {
	id, ok := g.index[nodeKey(d, v)]
	return id, ok
}

// NodeInfo returns the node contents.
func (g *Graph) NodeInfo(id NodeID) Node { return g.nodes[id] }

// NumNodes reports the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

func epsKey(from, to NodeID) int64 { return int64(from)<<32 | int64(uint32(to)) }

// addEps inserts an ε edge, reporting whether it is new.
func (g *Graph) addEps(from, to NodeID) bool {
	if from == to {
		return false
	}
	k := epsKey(from, to)
	if _, ok := g.epsSet[k]; ok {
		return false
	}
	g.epsSet[k] = struct{}{}
	g.eps[from] = append(g.eps[from], to)
	return true
}

// HasEps reports whether an ε edge from → to exists (for tests that
// validate saturation against the paper's Figure 14).
func (g *Graph) HasEps(from, to NodeID) bool {
	_, ok := g.epsSet[epsKey(from, to)]
	return ok
}

// A reach key is a packed (label id, origin node) pair: "a push of the
// label starting at org reaches this node through ε edges". Keys are
// ordered by label id first, so all origins of one label form a
// contiguous run that the pop-shortcut rule scans with one binary
// search.
func packReach(lid uint32, org NodeID) uint64 {
	return uint64(lid)<<32 | uint64(uint32(org))
}

func reachParts(rk uint64) (lid uint32, org NodeID) {
	return uint32(rk >> 32), NodeID(uint32(rk))
}

// insertReach inserts rk into the sorted set s, reporting whether it
// was new. Membership is a binary search; insertion shifts the tail.
// Used for the single-key inserts (seeding, pointer-dual transfer);
// whole-set ε propagation goes through mergeReach instead, which is
// linear rather than per-key.
func insertReach(s []uint64, rk uint64) ([]uint64, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= rk })
	if i < len(s) && s[i] == rk {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = rk
	return s, true
}

// mergeReach merges the sorted set src into the sorted set dst in
// O(|dst|+|src|), reporting whether dst grew. The merged result is
// assembled in *scratch; when dst grew, the old dst storage is
// recycled as the next scratch, so steady-state saturation merges
// allocate nothing. dst, src and *scratch must be distinct slices.
func mergeReach(dst, src []uint64, scratch *[]uint64) ([]uint64, bool) {
	if len(src) == 0 {
		return dst, false
	}
	if len(dst) == 0 {
		out := append((*scratch)[:0], src...)
		*scratch = dst
		return out, true
	}
	out := (*scratch)[:0]
	i, j := 0, 0
	grew := false
	for i < len(dst) && j < len(src) {
		switch {
		case dst[i] < src[j]:
			out = append(out, dst[i])
			i++
		case dst[i] > src[j]:
			out = append(out, src[j])
			j++
			grew = true
		default:
			out = append(out, dst[i])
			i++
			j++
		}
	}
	out = append(out, dst[i:]...)
	if j < len(src) {
		out = append(out, src[j:]...)
		grew = true
	}
	if !grew {
		*scratch = out[:0] // keep any capacity the merge grew
		return dst, false
	}
	*scratch = dst[:0]
	return out, true
}

// Saturate runs Algorithm D.2 to fixpoint. It is idempotent.
func (g *Graph) Saturate() {
	if g.saturated {
		return
	}
	g.saturated = true

	n := len(g.nodes)
	for len(g.satReach) < n {
		g.satReach = append(g.satReach, nil)
	}
	r := g.satReach[:n]

	work := g.satWork[:0]
	if cap(g.satIn) < n {
		g.satIn = make([]bool, n)
	}
	inWork := g.satIn[:n]
	for i := range inWork {
		inWork[i] = false
	}
	enqueue := func(id NodeID) {
		if !inWork[id] {
			inWork[id] = true
			work = append(work, id)
		}
	}

	addReach := func(id NodeID, rk uint64) {
		set, added := insertReach(r[id], rk)
		r[id] = set
		if added {
			enqueue(id)
		}
	}

	// Seed: every push edge (from --push ℓ--> to) makes (ℓ, from) reach
	// to.
	for from := range g.pushes {
		for _, e := range g.pushes[from] {
			addReach(e.to, packReach(e.lid, NodeID(from)))
		}
	}

	// process applies, for node id with reach set r[id]:
	//   (a) propagation along outgoing ε edges,
	//   (b) the lazy S-POINTER transfer when id has variance ⊖,
	//   (c) the shortcut rule on outgoing pop edges.
	//
	// Iterating r[id] by index while addReach runs is safe: every
	// target set belongs to a different node (ε edges and pointer duals
	// are never self-loops), so r[id] is not reallocated mid-loop.
	process := func(id NodeID) {
		node := g.nodes[id]
		// (b) first, so (c) sees the transferred labels on the dual node.
		// Pointer-access labels are ids 0 (.load) and 1 (.store); the
		// dual flips the low bit. They sort first, so the scan stops at
		// the first non-pointer key.
		if node.Var == label.Contravariant {
			dualID, ok := g.NodeOf(node.DTV, label.Covariant)
			if ok {
				for _, rk := range r[id] {
					lid, org := reachParts(rk)
					if lid > 1 {
						break
					}
					addReach(dualID, packReach(lid^1, org))
				}
			}
		}
		for _, succ := range g.eps[id] {
			merged, grew := mergeReach(r[succ], r[id], &g.satScratch)
			if grew {
				r[succ] = merged
				enqueue(succ)
			}
		}
		for _, pe := range g.pops[id] {
			// All reaches of pe's label form one contiguous run.
			set := r[id]
			lo := sort.Search(len(set), func(i int) bool { return set[i] >= packReach(pe.lid, 0) })
			for _, rk := range set[lo:] {
				lid, org := reachParts(rk)
				if lid != pe.lid {
					break
				}
				if org != pe.to {
					if g.addEps(org, pe.to) {
						// New ε edge: its source must re-propagate.
						enqueue(org)
					}
				}
			}
		}
	}

	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[id] = false
		process(id)
	}
	g.satWork = work[:0]
}

// EpsSucc returns the ε successors of id (shared slice; do not mutate).
func (g *Graph) EpsSucc(id NodeID) []NodeID { return g.eps[id] }

// PopSucc invokes f for each pop edge out of id.
func (g *Graph) PopSucc(id NodeID, f func(l label.Label, to NodeID)) {
	for _, e := range g.pops[id] {
		f(g.lbls[e.lid], e.to)
	}
}

// PushSucc invokes f for each push edge out of id.
func (g *Graph) PushSucc(id NodeID, f func(l label.Label, to NodeID)) {
	for _, e := range g.pushes[id] {
		f(g.lbls[e.lid], e.to)
	}
}

// ConstElem reports the lattice element of a constant node.
func (g *Graph) ConstElem(id NodeID) (lattice.Elem, bool) {
	e := g.constOf[id]
	return e, e != noConst
}

// Proves decides whether the constraint set entails l ⊑ r, by searching
// for a canonical pop*·ε*·push* path from (l.Base, ⟨l.Path⟩) to
// (r.Base, ⟨r.Path⟩) in the saturated graph (Theorem D.1).
func (g *Graph) Proves(l, r constraints.DTV) bool {
	if l == r {
		return true // S-REFL
	}
	g.Saturate()
	lPath, rPath := l.Path(), r.Path()

	// Phase 0: consume l.Path via pop edges, ε edges allowed anywhere.
	// A state is (node, labels consumed); seen is a bitset over
	// node*(|l.Path|+1)+consumed.
	start, ok := g.NodeOf(constraints.BaseDTV(l.Base()), lPath.Variance())
	if !ok {
		return false
	}
	type state struct {
		n NodeID
		i int
	}
	var stack []state
	seen := newBitset(len(g.nodes) * (len(lPath) + 1))
	push0 := func(s state) {
		if seen.set(int(s.n)*(len(lPath)+1) + s.i) {
			stack = append(stack, s)
		}
	}
	push0(state{start, 0})
	var frontier []NodeID // states with the full l.Path consumed
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.i == len(lPath) {
			frontier = append(frontier, s.n)
		}
		for _, succ := range g.eps[s.n] {
			push0(state{succ, s.i})
		}
		if s.i < len(lPath) {
			want := lPath[s.i]
			for _, e := range g.pops[s.n] {
				if g.lbls[e.lid] == want {
					push0(state{e.to, s.i + 1})
				}
			}
		}
	}
	if len(frontier) == 0 {
		return false
	}

	// Phase 1: emit r.Path via push edges; push edges emit the word
	// back-to-front (deepest label last stripped), so the count of
	// labels still to emit goes down. seen is reused as a bitset over
	// node*(|r.Path|+1)+remaining.
	goal, ok := g.NodeOf(constraints.BaseDTV(r.Base()), rPath.Variance())
	if !ok {
		return false
	}
	seen = newBitset(len(g.nodes) * (len(rPath) + 1))
	push1 := func(s state) {
		if seen.set(int(s.n)*(len(rPath)+1) + s.i) {
			stack = append(stack, s)
		}
	}
	for _, n := range frontier {
		push1(state{n, len(rPath)})
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.i == 0 && s.n == goal {
			return true
		}
		for _, succ := range g.eps[s.n] {
			push1(state{succ, s.i})
		}
		if s.i > 0 {
			want := rPath[s.i-1]
			for _, e := range g.pushes[s.n] {
				if g.lbls[e.lid] == want {
					push1(state{e.to, s.i - 1})
				}
			}
		}
	}
	return false
}

// bitset is a fixed-size set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// set adds i, reporting whether it was absent.
func (b bitset) set(i int) bool {
	w, m := i>>6, uint64(1)<<(i&63)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}
