package sketch

import (
	"sort"
	"sync"

	"retypd/internal/constraints"
	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/pgraph"
)

// Builder is the mutable shape-inference workspace (Theorem 3.1 /
// Algorithm E.1): a quotient of the derived-type-variable graph by the
// symmetrization ∼ of the subtype relation, computed Steensgaard-style
// with union-find and label congruence (conflating .load/.store
// children as required by the S-POINTER rule).
//
// Builder is one half of the phase-2 split between mutable scratch and
// immutable results: the Builder owns all pooled storage (classes are
// indexed by the interned DTV handle, class edges are short lists keyed
// by dense per-Builder label ids; NewBuilder draws a recycled Builder
// whose union-find arrays and edge lists retain their previous
// capacity, and Release returns it), while the sketches it extracts
// (SketchFor) share none of that storage and become the immutable,
// cache-shareable result once sealed (Sketch.Seal). The solver releases
// one Builder per procedure; nothing pooled ever escapes into a
// ProcResult or a ShapeCache entry.
type Builder struct {
	lat    *lattice.Lattice
	parent []int32
	rank   []int8
	edges  [][]classEdge  // valid on representatives
	flags  []Flags        // valid on representatives
	seeds  []lattice.Elem // join of constants unioned in (repr)
	nodeOf map[constraints.DTV]int32
	dtvs   []constraints.DTV

	// lblOf/lbls assign dense per-Builder label ids, reset per
	// NewBuilder. Ids 0 and 1 are always .load and .store, so pointer
	// conflation tests integer ids.
	lblOf map[label.Label]uint32
	lbls  []label.Label

	// index is sketchFor's scratch: packed (class, variance, depth)
	// keys to sketch state ids.
	index map[uint64]int
}

// classEdge is one labeled edge out of a class: the label's dense id
// and the target node.
type classEdge struct {
	lid uint32
	to  int32
}

const (
	lidLoad  uint32 = 0
	lidStore uint32 = 1
)

// builderPool recycles Builders between NewBuilder/Release cycles.
var builderPool = sync.Pool{New: func() any {
	return &Builder{
		nodeOf: map[constraints.DTV]int32{},
		lblOf:  map[label.Label]uint32{},
		index:  map[uint64]int{},
	}
}}

// reset prepares a pooled Builder for a fresh inference.
func (sh *Builder) reset(lat *lattice.Lattice) {
	sh.lat = lat
	sh.parent = sh.parent[:0]
	sh.rank = sh.rank[:0]
	sh.flags = sh.flags[:0]
	sh.seeds = sh.seeds[:0]
	sh.dtvs = sh.dtvs[:0]
	clear(sh.nodeOf)
	for i := range sh.edges {
		sh.edges[i] = sh.edges[i][:0]
	}
	sh.edges = sh.edges[:0]
	clear(sh.lblOf)
	sh.lbls = append(sh.lbls[:0], label.Load(), label.Store())
	sh.lblOf[label.Load()] = lidLoad
	sh.lblOf[label.Store()] = lidStore
}

// labelID returns l's dense per-Builder id, assigning the next one on
// first use.
func (sh *Builder) labelID(l label.Label) uint32 {
	if id, ok := sh.lblOf[l]; ok {
		return id
	}
	id := uint32(len(sh.lbls))
	sh.lbls = append(sh.lbls, l)
	sh.lblOf[l] = id
	return id
}

// edgeTo returns the target of class c's edge labeled lid.
func (sh *Builder) edgeTo(c int32, lid uint32) (int32, bool) {
	for _, e := range sh.edges[c] {
		if e.lid == lid {
			return e.to, true
		}
	}
	return 0, false
}

// Release returns the Builder to the package pool. The caller must not
// use sh (or query sketches against it) afterwards; sketches already
// extracted with SketchFor stay valid — they share no storage with the
// Builder.
func (sh *Builder) Release() {
	builderPool.Put(sh)
}

// NewBuilder builds the quotient graph for cs, applies the additive
// constraints of Figure 13, and returns the resulting Builder.
func NewBuilder(cs *constraints.Set, lat *lattice.Lattice) *Builder {
	sh := builderPool.Get().(*Builder)
	sh.reset(lat)

	// Register all derived type variables (prefix closed).
	for _, c := range cs.Constraints() {
		switch c.Kind {
		case constraints.KindSub:
			sh.node(c.L)
			sh.node(c.R)
		default:
			sh.node(c.X)
			sh.node(c.Y)
			sh.node(c.Z)
		}
	}
	// Union the two sides of every subtype constraint — except that
	// lattice constants do not glue classes together: κ is a type NAME,
	// not a structural node, so x ⊑ κ and κ ⊑ y must not identify x
	// with y (otherwise every value bounded by the same constant — for
	// example every allocation bounded below by ptr — would share its
	// capabilities program-wide). Constants contribute a seed mark
	// instead (Theorem 3.1 treats the lattice labels separately).
	constElem := func(d constraints.DTV) (lattice.Elem, bool) {
		if !d.IsBase() {
			return 0, false
		}
		return lat.ElemSym(d.BaseSym())
	}
	cs.EachSubtype(func(c constraints.Constraint) {
		le, lConst := constElem(c.L)
		re, rConst := constElem(c.R)
		switch {
		case lConst && rConst:
			// κ1 ⊑ κ2: pure lattice fact, nothing structural.
		case rConst:
			r := sh.find(sh.node(c.L))
			sh.seeds[r] = lat.Join(sh.seeds[r], re)
		case lConst:
			r := sh.find(sh.node(c.R))
			sh.seeds[r] = lat.Join(sh.seeds[r], le)
		default:
			sh.union(sh.node(c.L), sh.node(c.R))
		}
	})
	// Additive constraints: Figure 13 fixpoint over class flags.
	sh.applyAdditive(cs)
	return sh
}

// node interns d and its prefixes, wiring labeled edges parent→child.
func (sh *Builder) node(d constraints.DTV) int32 {
	if id, ok := sh.nodeOf[d]; ok {
		return id
	}
	id := int32(len(sh.parent))
	sh.parent = append(sh.parent, id)
	sh.rank = append(sh.rank, 0)
	if n := len(sh.edges); n < cap(sh.edges) {
		sh.edges = sh.edges[:n+1] // re-expose a recycled list
	} else {
		sh.edges = append(sh.edges, nil)
	}
	sh.flags = append(sh.flags, 0)
	sh.seeds = append(sh.seeds, sh.lat.Bottom())
	sh.nodeOf[d] = id
	sh.dtvs = append(sh.dtvs, d)

	if parent, last, ok := d.Parent(); ok {
		pid := sh.find(sh.node(parent))
		lid := sh.labelID(last)
		if prev, exists := sh.edgeTo(pid, lid); exists {
			sh.union(prev, id)
		} else {
			sh.edges[pid] = append(sh.edges[pid], classEdge{lid: lid, to: id})
			// S-POINTER conflation: a class's .load and .store children
			// coincide. Their ids are 0 and 1, so the dual flips the
			// low bit.
			if lid <= lidStore {
				if sib, ok := sh.edgeTo(pid, lid^1); ok {
					sh.union(sib, id)
				}
			}
		}
	} else if e, ok := sh.lat.ElemSym(d.BaseSym()); ok {
		sh.seeds[id] = e
	}
	return id
}

func (sh *Builder) find(x int32) int32 {
	for sh.parent[x] != x {
		sh.parent[x] = sh.parent[sh.parent[x]]
		x = sh.parent[x]
	}
	return x
}

// union merges the classes of a and b, propagating label congruence.
func (sh *Builder) union(a, b int32) {
	type job struct{ a, b int32 }
	work := []job{{a, b}}
	for len(work) > 0 {
		j := work[len(work)-1]
		work = work[:len(work)-1]
		ra, rb := sh.find(j.a), sh.find(j.b)
		if ra == rb {
			continue
		}
		if sh.rank[ra] < sh.rank[rb] {
			ra, rb = rb, ra
		}
		if sh.rank[ra] == sh.rank[rb] {
			sh.rank[ra]++
		}
		sh.parent[rb] = ra
		sh.flags[ra] |= sh.flags[rb]
		sh.seeds[ra] = sh.lat.Join(sh.seeds[ra], sh.seeds[rb])
		// Merge edge lists with congruence.
		if len(sh.edges[ra]) == 0 {
			// The winner had no edges: adopt the loser's list wholesale,
			// keeping the winner's empty storage on the dead class.
			sh.edges[ra], sh.edges[rb] = sh.edges[rb], sh.edges[ra]
		} else {
			for _, e := range sh.edges[rb] {
				if prev, ok := sh.edgeTo(ra, e.lid); ok {
					work = append(work, job{prev, e.to})
				} else {
					sh.edges[ra] = append(sh.edges[ra], e)
				}
			}
			sh.edges[rb] = sh.edges[rb][:0]
		}
		// Pointer conflation on the merged class.
		if lo, ok1 := sh.edgeTo(ra, lidLoad); ok1 {
			if st, ok2 := sh.edgeTo(ra, lidStore); ok2 {
				work = append(work, job{lo, st})
			}
		}
	}
}

// classOf returns the representative of d's class, or -1 if d was never
// seen.
func (sh *Builder) classOf(d constraints.DTV) int32 {
	if id, ok := sh.nodeOf[d]; ok {
		return sh.find(id)
	}
	return -1
}

// HasCapability reports whether the constraint set gives d's class an
// outgoing l edge.
func (sh *Builder) HasCapability(d constraints.DTV, l label.Label) bool {
	c := sh.classOf(d)
	lid, known := sh.lblOf[l]
	if c < 0 || !known {
		return false
	}
	_, ok := sh.edgeTo(c, lid)
	return ok
}

// applyAdditive runs the Figure 13 inference rules over class
// pointer/integer flags to fixpoint.
func (sh *Builder) applyAdditive(cs *constraints.Set) {
	// Seeds: classes with load/store capabilities are pointers; classes
	// joined with scalar constants are integers or pointers per Λ.
	ptrElem, hasPtr := sh.lat.Elem("ptr")
	var numElems []lattice.Elem
	for _, name := range []string{"num8", "num16", "num32", "num64"} {
		if e, ok := sh.lat.Elem(name); ok {
			numElems = append(numElems, e)
		}
	}
	isNumeric := func(e lattice.Elem) bool {
		for _, n := range numElems {
			if sh.lat.Leq(e, n) {
				return true
			}
		}
		return false
	}
	for i := range sh.parent {
		r := sh.find(int32(i))
		for _, e := range sh.edges[r] {
			if e.lid <= lidStore {
				sh.flags[r] |= FlagPointer
			}
		}
		if sh.seeds[r] != sh.lat.Bottom() {
			switch {
			case hasPtr && sh.lat.Leq(sh.seeds[r], ptrElem):
				sh.flags[r] |= FlagPointer
			case isNumeric(sh.seeds[r]):
				sh.flags[r] |= FlagInteger
			}
		}
	}

	adds := cs.Additive()
	if len(adds) == 0 {
		return
	}
	isP := func(c int32) bool { return sh.flags[c]&FlagPointer != 0 }
	isI := func(c int32) bool { return sh.flags[c]&FlagInteger != 0 }
	mark := func(c int32, f Flags) bool {
		if sh.flags[c]&f == f {
			return false
		}
		sh.flags[c] |= f
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, c := range adds {
			x, y, z := sh.classOf(c.X), sh.classOf(c.Y), sh.classOf(c.Z)
			if x < 0 || y < 0 || z < 0 {
				continue
			}
			if c.Kind == constraints.KindAdd {
				switch {
				case isI(x) && isI(y):
					changed = mark(z, FlagInteger) || changed
				case isI(z):
					changed = mark(x, FlagInteger) || changed
					changed = mark(y, FlagInteger) || changed
				}
				if isP(x) {
					changed = mark(z, FlagPointer) || changed
					changed = mark(y, FlagInteger) || changed
				}
				if isP(y) {
					changed = mark(z, FlagPointer) || changed
					changed = mark(x, FlagInteger) || changed
				}
				if isP(z) && isI(x) {
					changed = mark(y, FlagPointer) || changed
				}
				if isP(z) && isI(y) {
					changed = mark(x, FlagPointer) || changed
				}
			} else {
				// SUB: z = x - y.
				if isI(x) {
					changed = mark(y, FlagInteger) || changed
					changed = mark(z, FlagInteger) || changed
				}
				if isI(y) && isI(z) {
					changed = mark(x, FlagInteger) || changed
				}
				if isP(z) && isI(y) {
					changed = mark(x, FlagPointer) || changed
				}
				if isP(y) {
					changed = mark(x, FlagPointer) || changed
					changed = mark(z, FlagInteger) || changed
				}
				if isP(x) && isI(z) {
					changed = mark(y, FlagPointer) || changed
				}
				if isP(x) && isI(y) {
					changed = mark(z, FlagPointer) || changed
				}
				if isP(x) && isP(z) {
					changed = mark(y, FlagInteger) || changed
				}
			}
		}
	}
}

// SeedFor returns the join of the lattice constants unified into v's
// class — the "type" a unification-based algorithm assigns to it
// (⊥ when unconstrained; incomparable constants collapse toward ⊤,
// modeling the over-unification loss of §2.5).
func (sh *Builder) SeedFor(v constraints.Var) lattice.Elem {
	c := sh.classOf(constraints.BaseDTV(v))
	if c < 0 {
		return sh.lat.Bottom()
	}
	return sh.seeds[c]
}

// SketchForUnify extracts v's sketch with unification-style marks:
// every node's bounds collapse to its class seed (a point interval when
// a constant was unified in, unconstrained otherwise).
func (sh *Builder) SketchForUnify(v constraints.Var, maxDepth int) *Sketch {
	sk := sh.sketchFor(v, maxDepth, true)
	return sk
}

// SketchFor extracts the sketch of base variable v from the quotient
// graph. maxDepth < 0 means unbounded (recursive sketches become loops
// in the automaton); maxDepth ≥ 0 truncates expansion, which is how the
// TIE-style baseline's lack of recursive types is modeled.
func (sh *Builder) SketchFor(v constraints.Var, maxDepth int) *Sketch {
	return sh.sketchFor(v, maxDepth, false)
}

func (sh *Builder) sketchFor(v constraints.Var, maxDepth int, unifyMarks bool) *Sketch {
	root := sh.classOf(constraints.BaseDTV(v))
	if root < 0 {
		return NewTop(sh.lat)
	}
	sk := &Sketch{Lat: sh.lat}
	type key struct {
		class int32
		v     label.Variance
		depth int
	}
	index := sh.index
	clear(index)
	var build func(k key) int
	build = func(k key) int {
		// Depth participates in identity only when truncating.
		ik := uint64(k.class) << 32
		if maxDepth >= 0 {
			ik |= uint64(k.depth) << 1
		}
		if k.v == label.Covariant {
			ik |= 1
		}
		if id, ok := index[ik]; ok {
			return id
		}
		id := len(sk.States)
		index[ik] = id
		cls := sh.find(k.class)
		st := State{
			Lower:    sh.lat.Bottom(),
			Upper:    sh.lat.Top(),
			Variance: k.v,
			Flags:    sh.flags[cls],
		}
		if unifyMarks && sh.seeds[cls] != sh.lat.Bottom() && sh.seeds[cls] != sh.lat.Top() {
			// A unified-in constant is THE type of the class. When
			// incomparable constants collided the join is ⊤: the
			// unification tool detects a conflict and falls back to
			// "no information" (IdaPro-style), leaving the node
			// unconstrained.
			st.Lower, st.Upper = sh.seeds[cls], sh.seeds[cls]
			st.LowerSet = []lattice.Elem{sh.seeds[cls]}
			st.UpperSet = []lattice.Elem{sh.seeds[cls]}
		}
		sk.States = append(sk.States, st)
		if maxDepth >= 0 && k.depth >= maxDepth {
			return id
		}
		// Sorting the class's list in place is harmless: lookups scan
		// it, and its labels are distinct, so re-sorting is a no-op.
		out := sh.edges[cls]
		sort.Slice(out, func(i, j int) bool {
			return label.Compare(sh.lbls[out[i].lid], sh.lbls[out[j].lid]) < 0
		})
		edges := make([]Edge, 0, len(out))
		for _, e := range out {
			l := sh.lbls[e.lid]
			child := key{class: sh.find(e.to), v: k.v.Mul(l.Variance()), depth: k.depth + 1}
			edges = append(edges, Edge{Label: l, To: build(child)})
		}
		sk.States[id].Edges = edges
		return id
	}
	build(key{class: root, v: label.Covariant, depth: 0})
	return sk
}

// Decorator computes the lattice bounds that label sketch nodes
// (Appendix D.4): lower bounds κ with ⊢ κ ⊑ X.u and upper bounds with
// ⊢ X.u ⊑ κ, read off the saturated constraint graph by a product walk
// of the sketch automaton with the graph's pop/ε structure.
type Decorator struct {
	g      *pgraph.Graph
	revEps [][]pgraph.NodeID

	// Walk scratch. seen is a bitset over state*NumNodes+node that is
	// all zero between walks: a walk records each word it dirties in
	// touched and zeroes exactly those words when it ends, so clearing
	// costs the walk's footprint, not states×nodes bits.
	seen    []uint64
	touched []int32
	stack   []decItem
}

// decItem is one (sketch state, graph node) pair of the product walk.
type decItem struct {
	st int
	n  pgraph.NodeID
}

// decPool recycles Decorator scratch: the per-procedure revEps table —
// one slice header per graph node plus every append-grown reverse-edge
// spine — and the walk bitset are allocation hot spots on large
// corpora, and their capacity is fully reusable across procedures.
var decPool = sync.Pool{New: func() any { return &Decorator{} }}

// NewDecorator prepares a decorator for the (saturated) graph, drawing
// scratch from the package pool; pair with Release to recycle it.
func NewDecorator(g *pgraph.Graph) *Decorator {
	d := decPool.Get().(*Decorator)
	d.reset(g)
	return d
}

// reset points d at g and rebuilds the reverse ε table.
func (d *Decorator) reset(g *pgraph.Graph) {
	g.Saturate()
	d.g = g
	n := g.NumNodes()
	if cap(d.revEps) < n {
		d.revEps = make([][]pgraph.NodeID, n)
	}
	d.revEps = d.revEps[:n]
	for i := range d.revEps {
		d.revEps[i] = d.revEps[i][:0]
	}
	for i := 0; i < n; i++ {
		for _, succ := range g.EpsSucc(pgraph.NodeID(i)) {
			d.revEps[succ] = append(d.revEps[succ], pgraph.NodeID(i))
		}
	}
}

// Release returns the decorator's scratch to the package pool for
// reuse by a later NewDecorator. The caller must not use d afterwards.
// Releasing is optional — an unreleased decorator is simply collected —
// and must happen at most once.
func (d *Decorator) Release() {
	d.g = nil
	decPool.Put(d)
}

// Decorate fills in Lower and Upper for every state of sk, where sk is
// the sketch of base variable root. Decorating a sealed sketch panics:
// cache-served sketches are immutable, and decoration happens exactly
// once, before sealing.
func (d *Decorator) Decorate(sk *Sketch, root constraints.Var) {
	sk.mustBeMutable("Decorate")
	base := constraints.BaseDTV(root)
	var starts []pgraph.NodeID
	if n, ok := d.g.NodeOf(base, label.Covariant); ok {
		starts = append(starts, n)
	}
	if n, ok := d.g.NodeOf(base, label.Contravariant); ok {
		starts = append(starts, n)
	}
	if len(starts) == 0 {
		return
	}
	lat := d.g.Lattice()
	nodes := d.g.NumNodes()
	if words := (len(sk.States)*nodes + 63) / 64; len(d.seen) < words {
		d.seen = append(d.seen, make([]uint64, words-len(d.seen))...)
	}

	// One product walk per direction. silent(n) yields ε-moves; read
	// moves follow pop edges aligned with sketch edges. At each visited
	// (state, node) with node a constant, apply the bound.
	walk := func(silent func(pgraph.NodeID) []pgraph.NodeID, apply func(st int, e lattice.Elem)) {
		stack := d.stack[:0]
		push := func(it decItem) {
			bit := it.st*nodes + int(it.n)
			w, m := bit>>6, uint64(1)<<(bit&63)
			if d.seen[w]&m != 0 {
				return
			}
			if d.seen[w] == 0 {
				d.touched = append(d.touched, int32(w))
			}
			d.seen[w] |= m
			stack = append(stack, it)
		}
		for _, s := range starts {
			push(decItem{0, s})
		}
		for len(stack) > 0 {
			it := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if e, ok := d.g.ConstElem(it.n); ok {
				apply(it.st, e)
			}
			for _, n2 := range silent(it.n) {
				push(decItem{it.st, n2})
			}
			d.g.PopSucc(it.n, func(l label.Label, to pgraph.NodeID) {
				if next := sk.States[it.st].Lookup(l); next >= 0 {
					push(decItem{next, to})
				}
			})
		}
		d.stack = stack[:0]
		for _, w := range d.touched {
			d.seen[w] = 0
		}
		d.touched = d.touched[:0]
	}

	walk(func(n pgraph.NodeID) []pgraph.NodeID { return d.revEps[n] },
		func(st int, e lattice.Elem) { sk.States[st].AddLower(lat, e) })
	walk(func(n pgraph.NodeID) []pgraph.NodeID { return d.g.EpsSucc(n) },
		func(st int, e lattice.Elem) { sk.States[st].AddUpper(lat, e) })
}
