// Package sketch implements Retypd's semantic model of types: sketches
// (Noonan et al., PLDI 2016, §3.5 and Appendix E).
//
// A sketch is a regular tree whose edges are labeled with field labels
// from Σ and whose nodes are marked with elements of the auxiliary
// lattice Λ; it records the capabilities a value holds (which fields can
// be accessed, whether it can be loaded from or stored through, called,
// …) together with atomic-type bounds. Collapsing isomorphic subtrees
// represents a sketch as a deterministic finite automaton whose states
// carry lattice elements (Definition 3.5).
//
// We decorate every node with a pair (Lower, Upper) of lattice bounds:
// the covariant ν of the paper corresponds to Lower at covariant nodes
// and Upper at contravariant nodes; keeping both directions also gives
// the TIE-style intervals used by the evaluation metrics.
package sketch

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"retypd/internal/label"
	"retypd/internal/lattice"
)

// Flags carry scalar classification inferred from additive constraints
// (Appendix A.6, Figure 13).
type Flags uint8

const (
	// FlagPointer marks a value inferred to be pointer-like.
	FlagPointer Flags = 1 << iota
	// FlagInteger marks a value inferred to be integer-like.
	FlagInteger
)

// State is one node of a sketch automaton.
type State struct {
	// Edges are the outgoing labeled transitions, sorted by label.
	Edges []Edge
	// Lower and Upper are the lattice bounds collected for this node:
	// joins of lower-bound constants and meets of upper-bound constants.
	Lower, Upper lattice.Elem
	// LowerSet and UpperSet retain the individual bound constants as
	// antichains; the join/meet can collapse to ⊤/⊥ (e.g. Figure 2's
	// int ∨ #SuccessZ), and the C-type conversion policies need the
	// members to render tags and unions (Examples 4.2 and the
	// #FileDescriptor comments of Figure 2).
	LowerSet, UpperSet []lattice.Elem
	// Variance is the variance of the words reaching this state.
	Variance label.Variance
	// Flags carries pointer/integer classification.
	Flags Flags
}

// AddLower records a lower-bound constant. State-level mutators (and
// direct field writes) must only be applied to sketches the caller
// owns and has not sealed; a State carries no back-pointer to its
// sketch, so the sealed guard lives on the Sketch-level entry points
// (Decorator.Decorate) and on Seal's slice clamping.
func (st *State) AddLower(lat *lattice.Lattice, e lattice.Elem) {
	st.Lower = lat.Join(st.Lower, e)
	st.LowerSet = lat.Antichain(append(st.LowerSet, e))
}

// AddUpper records an upper-bound constant.
func (st *State) AddUpper(lat *lattice.Lattice, e lattice.Elem) {
	st.Upper = lat.Meet(st.Upper, e)
	st.UpperSet = lat.Antichain(append(st.UpperSet, e))
}

// Edge is a labeled transition.
type Edge struct {
	Label label.Label
	To    int
}

// Sketch is a rooted sketch automaton. State 0 is the root. A nil
// Sketch represents the ⊤ sketch (language {ε}, unconstrained marks).
//
// A Sketch starts out mutable — the Builder extracts it and the
// Decorator fills in its lattice bounds — and is then frozen with Seal
// before it is shared (the ShapeCache only ever hands out sealed
// sketches). Sealing is the immutability boundary of the phase-2 memo:
// a sealed sketch may be read concurrently by any number of goroutines,
// and every operation that derives a new sketch from it (Descend, Meet,
// Join, WithRootVariance) returns a fresh unsealed value whose mutation
// cannot reach back into the sealed storage.
type Sketch struct {
	Lat    *lattice.Lattice
	States []State

	// sealed marks the sketch immutable. Set by Seal; checked by the
	// in-package mutators (Decorator.Decorate, recomputeVariance).
	sealed bool
}

// Seal freezes the sketch: subsequent Decorate calls panic, and every
// internal slice is clamped to its length so that appends performed on
// derived copies (Descend, combine) reallocate instead of writing into
// the shared backing arrays. Seal is idempotent and returns s for
// chaining. A sealed sketch is safe for concurrent readers.
func (s *Sketch) Seal() *Sketch {
	if s.sealed {
		return s
	}
	s.States = s.States[:len(s.States):len(s.States)]
	for i := range s.States {
		st := &s.States[i]
		st.Edges = st.Edges[:len(st.Edges):len(st.Edges)]
		st.LowerSet = st.LowerSet[:len(st.LowerSet):len(st.LowerSet)]
		st.UpperSet = st.UpperSet[:len(st.UpperSet):len(st.UpperSet)]
	}
	s.sealed = true
	return s
}

// Sealed reports whether the sketch has been frozen.
func (s *Sketch) Sealed() bool { return s.sealed }

// mustBeMutable is the guard every in-package mutator runs first.
func (s *Sketch) mustBeMutable(op string) {
	if s.sealed {
		panic("sketch: " + op + " on a sealed Sketch (cache-served sketches are immutable; derive a copy instead)")
	}
}

// WithRootVariance returns a sketch equal to s but with the root
// state's variance set to v: a copy-on-write derivation (fresh States
// slice, shared edge/bound storage) used by display policies that view
// a parameter sketch in contravariant position. s itself — sealed or
// not — is never modified, and a sealed receiver always yields a
// fresh mutable copy, even when no variance change is needed, so the
// "derived views are mutable" contract holds unconditionally.
func (s *Sketch) WithRootVariance(v label.Variance) *Sketch {
	if len(s.States) == 0 || s.States[0].Variance == v {
		if !s.sealed {
			return s
		}
		return s.unsealedCopy()
	}
	out := s.unsealedCopy()
	out.States[0].Variance = v
	return out
}

// unsealedCopy returns a mutable shallow copy: fresh States slice,
// shared (clamped, if s is sealed) edge and bound-set storage.
func (s *Sketch) unsealedCopy() *Sketch {
	return &Sketch{Lat: s.Lat, States: append([]State(nil), s.States...)}
}

// NewTop returns the one-state sketch accepting only ε with
// unconstrained bounds (⊥ lower, ⊤ upper) at the root.
func NewTop(lat *lattice.Lattice) *Sketch {
	return &Sketch{Lat: lat, States: []State{{
		Lower: lat.Bottom(), Upper: lat.Top(), Variance: label.Covariant,
	}}}
}

// Lookup returns the index of the transition for l in st, or -1.
func (st *State) Lookup(l label.Label) int {
	for i, e := range st.Edges {
		if e.Label == l {
			return e.To
		}
		_ = i
	}
	return -1
}

// Accepts reports whether w ∈ L(S).
func (s *Sketch) Accepts(w label.Word) bool {
	_, ok := s.StateAt(w)
	return ok
}

// StateAt walks w from the root, returning the reached state index.
func (s *Sketch) StateAt(w label.Word) (int, bool) {
	cur := 0
	for _, l := range w {
		next := s.States[cur].Lookup(l)
		if next < 0 {
			return 0, false
		}
		cur = next
	}
	return cur, true
}

// Descend returns the sub-sketch rooted at the state reached by w
// (u⁻¹S in the paper's notation), or false if w ∉ L(S).
func (s *Sketch) Descend(w label.Word) (*Sketch, bool) {
	root, ok := s.StateAt(w)
	if !ok {
		return nil, false
	}
	if root == 0 {
		if !s.sealed {
			return s, true
		}
		// Sealed sketches never hand themselves out as a "derived"
		// view: the caller gets a mutable copy it may decorate freely.
		return s.unsealedCopy(), true
	}
	// Extract the sub-automaton reachable from root.
	// remap[old] is the new index of state old, -1 until reached.
	remap := make([]int, len(s.States))
	for i := range remap {
		remap[i] = -1
	}
	remap[root] = 0
	order := []int{root}
	for i := 0; i < len(order); i++ {
		for _, e := range s.States[order[i]].Edges {
			if remap[e.To] < 0 {
				remap[e.To] = len(order)
				order = append(order, e.To)
			}
		}
	}
	out := &Sketch{Lat: s.Lat, States: make([]State, len(order))}
	for i, old := range order {
		st := s.States[old]
		ns := State{
			Lower: st.Lower, Upper: st.Upper, Flags: st.Flags,
			LowerSet: st.LowerSet, UpperSet: st.UpperSet,
		}
		if i == 0 {
			ns.Variance = label.Covariant
		} else {
			ns.Variance = st.Variance // recomputed below
		}
		for _, e := range st.Edges {
			ns.Edges = append(ns.Edges, Edge{Label: e.Label, To: remap[e.To]})
		}
		out.States[i] = ns
	}
	out.recomputeVariance()
	return out, true
}

// recomputeVariance sets each state's variance from the root (states
// reachable with both variances keep the first one found; such sketches
// do not arise from shape inference, which splits states by variance).
func (s *Sketch) recomputeVariance() {
	s.mustBeMutable("recomputeVariance")
	seen := make([]bool, len(s.States))
	type item struct {
		st int
		v  label.Variance
	}
	work := []item{{0, label.Covariant}}
	seen[0] = true
	s.States[0].Variance = label.Covariant
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range s.States[it.st].Edges {
			if !seen[e.To] {
				seen[e.To] = true
				s.States[e.To].Variance = it.v.Mul(e.Label.Variance())
				work = append(work, item{e.To, s.States[e.To].Variance})
			}
		}
	}
}

// Size reports the number of states.
func (s *Sketch) Size() int { return len(s.States) }

// sortEdges normalizes edge order.
func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool { return label.Compare(es[i].Label, es[j].Label) < 0 })
}

// Meet computes s ⊓ t: language union, with marks combined per
// Figure 18 (covariant nodes: Lower meet-side combines with ∧ on the
// primary mark; we combine Lower with ∨ and Upper with ∧ pointwise,
// which realizes ν⊓ = ν∧ at covariant nodes via Upper and ν∨ at
// contravariant nodes via Lower).
func (s *Sketch) Meet(t *Sketch) *Sketch { return combine(s, 0, t, true) }

// DescendMeet computes s.Descend(w) ⊓ t without materializing the
// descended sub-sketch; ok is false when s has no state at w.
func (s *Sketch) DescendMeet(w label.Word, t *Sketch) (*Sketch, bool) {
	root, ok := s.StateAt(w)
	if !ok {
		return nil, false
	}
	return combine(s, root, t, true), true
}

// Join computes s ⊔ t: language intersection with dual mark
// combination.
func (s *Sketch) Join(t *Sketch) *Sketch { return combine(s, 0, t, false) }

// combine implements the product construction for both lattice
// operations, on the sub-automaton of s rooted at state sRoot (its
// stored variances are never read: the product recomputes them from the
// root). meet=true: union of languages (absent components behave as
// neutral); meet=false: intersection.
func combine(s *Sketch, sRoot int, t *Sketch, meet bool) *Sketch {
	lat := s.Lat
	type pair struct{ a, b int } // -1 = absent
	// index keys product states by the packed pair (a+1)<<32 | (b+1).
	index := map[uint64]int{}
	out := &Sketch{Lat: lat}
	var build func(p pair, v label.Variance) int
	build = func(p pair, v label.Variance) int {
		key := uint64(uint32(p.a+1))<<32 | uint64(uint32(p.b+1))
		if id, ok := index[key]; ok {
			return id
		}
		id := len(out.States)
		index[key] = id
		out.States = append(out.States, State{Variance: v})

		var sa, sb *State
		if p.a >= 0 {
			sa = &s.States[p.a]
		}
		if p.b >= 0 {
			sb = &t.States[p.b]
		}
		st := State{Variance: v}
		switch {
		case sa != nil && sb != nil:
			if meet {
				// ⊓: more capable, lower in the order: Lower joins up,
				// Upper meets down at covariant nodes (and dually the
				// interval widens in the contravariant direction).
				st.Lower = lat.Join(sa.Lower, sb.Lower)
				st.Upper = lat.Meet(sa.Upper, sb.Upper)
			} else {
				st.Lower = lat.Meet(sa.Lower, sb.Lower)
				st.Upper = lat.Join(sa.Upper, sb.Upper)
			}
			st.LowerSet = lat.Antichain(append(append([]lattice.Elem(nil), sa.LowerSet...), sb.LowerSet...))
			st.UpperSet = lat.Antichain(append(append([]lattice.Elem(nil), sa.UpperSet...), sb.UpperSet...))
			st.Flags = sa.Flags | sb.Flags
		case sa != nil:
			st.Lower, st.Upper, st.Flags = sa.Lower, sa.Upper, sa.Flags
			st.LowerSet, st.UpperSet = sa.LowerSet, sa.UpperSet
		case sb != nil:
			st.Lower, st.Upper, st.Flags = sb.Lower, sb.Upper, sb.Flags
			st.LowerSet, st.UpperSet = sb.LowerSet, sb.UpperSet
		}

		// Successor labels: s's edges then t's, stably sorted by label,
		// so each label's run ends with its last edge from either side
		// (the one that counts if a side repeats a label).
		type succ struct {
			l    label.Label
			to   int
			from int // 0 for s, 1 for t
		}
		var succs []succ
		if sa != nil {
			for _, e := range sa.Edges {
				succs = append(succs, succ{e.Label, e.To, 0})
			}
		}
		if sb != nil {
			for _, e := range sb.Edges {
				succs = append(succs, succ{e.Label, e.To, 1})
			}
		}
		slices.SortStableFunc(succs, func(a, b succ) int { return label.Compare(a.l, b.l) })
		var edges []Edge
		for i := 0; i < len(succs); {
			l := succs[i].l
			np := pair{-1, -1}
			for ; i < len(succs) && succs[i].l == l; i++ {
				if succs[i].from == 0 {
					np.a = succs[i].to
				} else {
					np.b = succs[i].to
				}
			}
			if !meet && (np.a < 0 || np.b < 0) {
				continue // intersection: both must step
			}
			edges = append(edges, Edge{Label: l, To: build(np, v.Mul(l.Variance()))})
		}
		st.Edges = edges
		out.States[id] = st
		return id
	}
	build(pair{sRoot, 0}, label.Covariant)
	return out
}

// Leq reports s ⊑ t in the sketch lattice: L(s) ⊇ L(t), and for every
// shared word the bounds are ordered according to the word's variance.
func (s *Sketch) Leq(t *Sketch) bool {
	lat := s.Lat
	type pair struct{ a, b int }
	seen := map[pair]bool{}
	var walk func(p pair, v label.Variance) bool
	walk = func(p pair, v label.Variance) bool {
		if seen[p] {
			return true
		}
		seen[p] = true
		sa, sb := &s.States[p.a], &t.States[p.b]
		if v == label.Covariant {
			if !lat.Leq(sa.Lower, sb.Lower) || !lat.Leq(sa.Upper, sb.Upper) {
				return false
			}
		} else {
			if !lat.Leq(sb.Lower, sa.Lower) || !lat.Leq(sb.Upper, sa.Upper) {
				return false
			}
		}
		for _, e := range sb.Edges {
			na := sa.Lookup(e.Label)
			if na < 0 {
				return false // t has a capability s lacks: L(s) ⊉ L(t)
			}
			if !walk(pair{na, e.To}, v.Mul(e.Label.Variance())) {
				return false
			}
		}
		return true
	}
	return walk(pair{0, 0}, label.Covariant)
}

// Equal reports mutual Leq.
func (s *Sketch) Equal(t *Sketch) bool { return s.Leq(t) && t.Leq(s) }

// String renders the sketch as an indented tree, cutting off at
// back-edges, for debugging and golden tests.
func (s *Sketch) String() string {
	var b strings.Builder
	var walk func(st int, indent string, onPath map[int]bool)
	walk = func(st int, indent string, onPath map[int]bool) {
		node := s.States[st]
		fmt.Fprintf(&b, "[%s,%s]", s.Lat.Name(node.Lower), s.Lat.Name(node.Upper))
		if node.Flags&FlagPointer != 0 {
			b.WriteString(" ptr")
		}
		if node.Flags&FlagInteger != 0 {
			b.WriteString(" int")
		}
		b.WriteString("\n")
		if onPath[st] {
			return
		}
		onPath[st] = true
		for _, e := range node.Edges {
			fmt.Fprintf(&b, "%s.%s → ", indent, e.Label)
			if onPath[e.To] {
				fmt.Fprintf(&b, "↺ state %d\n", e.To)
				continue
			}
			walk(e.To, indent+"  ", onPath)
		}
		delete(onPath, st)
	}
	walk(0, "", map[int]bool{})
	return b.String()
}
