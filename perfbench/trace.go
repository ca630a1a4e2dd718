package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"retypd/internal/absint"
	"retypd/internal/asm"
	"retypd/internal/bodyfp"
	"retypd/internal/cfg"
	"retypd/internal/constraints"
	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/pgraph"
	"retypd/internal/sketch"
	"retypd/internal/solver"
	"retypd/internal/summaries"
)

// Span layers. The traced replay opens one span per call into a layer's
// public functions; layOp and layPhase spans only group them (an op,
// and one SCC's F.1 or one procedure's F.2).
const (
	layOp uint8 = iota
	layPhase
	layAsm
	layCfg
	layBodyfp
	layAbsint
	layPgraph
	laySketch
	layCtype
	numLayers
)

var layerNames = [numLayers]string{"op", "phase", "asm", "cfg", "bodyfp", "absint", "pgraph", "sketch", "ctype"}

// span is one timed call. Spans of one op share op; parent is the
// enclosing span's index (-1 for an op's root).
type span struct {
	op, parent int32
	layer      uint8
	call       string
	start, end time.Duration
}

// tracer records spans in memory; they are written out after the run.
// A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	op    int32
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(layer uint8, call string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{op: t.op, parent: parent, layer: layer, call: call, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per op, each layer's self time in ms: a span's
// duration minus the time its direct children cover.
func (t *tracer) selfTimes() map[int32]*[numLayers]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[int32]*[numLayers]float64{}
	for i, s := range t.spans {
		per := out[s.op]
		if per == nil {
			per = &[numLayers]float64{}
			out[s.op] = per
		}
		per[s.layer] += float64((s.end-s.start)-child[i]) / 1e6
	}
	return out
}

// write dumps every span as one tab-separated line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "op\tspan\tparent\tlayer\tcall\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", s.op, i, s.parent, layerNames[s.layer], s.call, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayCounts are the work counters one replayed op reports.
type replayCounts struct {
	insts, procs, sccs, constraints, nodes, schemeConstraints, states int
}

// actualObs is one callsite-actual sketch observed in F.2.
type actualObs struct {
	callee, loc, caller string
	inst                int
	sk                  *sketch.Sketch
}

// replay runs one op sequentially through the layers' public functions,
// with no memo layer, recording a span around every call. It mirrors
// the solver's plain path — F.1 per SCC bottom-up, F.2 per procedure,
// F.3 joins in canonical order — so its rendered output must equal the
// pipeline's.
func replay(src string, tr *tracer) (opResult, replayCounts, error) {
	var c replayCounts
	lat := lattice.Default()
	sums := summaries.Default()
	isConst := func(v constraints.Var) bool {
		_, ok := lat.Elem(string(v))
		return ok
	}

	s := tr.begin(layAsm, "asm.Parse")
	prog, err := asm.Parse(src)
	tr.end(s)
	if err != nil {
		return opResult{}, c, err
	}
	c.insts = prog.NumInsts()

	s = tr.begin(layCfg, "cfg.BuildCallGraph")
	cg := cfg.BuildCallGraph(prog)
	tr.end(s)
	infos := make(map[string]*cfg.ProcInfo, len(prog.Procs))
	for _, p := range prog.Procs {
		s = tr.begin(layCfg, "cfg.Analyze")
		infos[p.Name] = cfg.Analyze(prog, p)
		tr.end(s)
	}
	s = tr.begin(layCfg, "cfg.FinishHasOut")
	cfg.FinishHasOut(infos)
	tr.end(s)
	c.procs, c.sccs = len(prog.Procs), len(cg.SCCs)

	newClassTable().classify(cg, 0, tr)

	// F.1: constraint generation and scheme simplification per SCC,
	// callees first; an SCC's own members see no scheme of each other.
	schemes := map[string]*constraints.Scheme{}
	gens := map[string]*absint.Result{}
	lookup := func(name string) *constraints.Scheme { return schemes[name] }
	for _, scc := range cg.SCCs {
		f1 := tr.begin(layPhase, "F.1")
		var sccCs *constraints.Set
		if len(scc) > 1 {
			sccCs = constraints.NewSet()
		}
		for _, p := range scc {
			s := tr.begin(layAbsint, "absint.Generate")
			gr := absint.Generate(infos[p], infos, lookup, sums, isConst, absint.Options{})
			tr.end(s)
			gens[p] = gr
			c.constraints += gr.Constraints.Len()
			if sccCs == nil {
				sccCs = gr.Constraints
			} else {
				sccCs.InsertAll(gr.Constraints)
			}
		}
		s := tr.begin(layPgraph, "pgraph.Build")
		g := pgraph.Build(sccCs, lat)
		tr.end(s)
		s = tr.begin(layPgraph, "pgraph.Saturate")
		g.Saturate()
		tr.end(s)
		c.nodes += g.NumNodes()
		out := make([]*constraints.Scheme, len(scc))
		for j, p := range scc {
			root := constraints.Var(p)
			s := tr.begin(layPgraph, "pgraph.Simplify")
			simp := g.Simplify(func(v constraints.Var) bool { return v == root })
			tr.end(s)
			c.schemeConstraints += simp.Constraints.Len()
			out[j] = &constraints.Scheme{Root: root, Constraints: simp.Constraints, Existential: simp.Existential}
		}
		g.Release()
		for j, p := range scc {
			schemes[p] = out[j]
		}
		tr.end(f1)
	}

	// F.2: sketch solving per procedure, recording callsite actuals.
	res := &solver.Result{Prog: prog, Lat: lat, Infos: infos, Procs: map[string]*solver.ProcResult{}, SCCs: cg.SCCs}
	var obs []actualObs
	for _, scc := range cg.SCCs {
		for _, p := range scc {
			f2 := tr.begin(layPhase, "F.2")
			pr, o := solveProc(p, gens[p], infos, schemes[p], lat, tr)
			obs = append(obs, o...)
			res.Procs[p] = pr
			c.states += pr.Sketch.Size()
			tr.end(f2)
		}
	}

	// F.3: join the actuals per callee formal in canonical order, then
	// meet each formal with its joined actuals.
	f3 := tr.begin(layPhase, "F.3")
	sort.Slice(obs, func(i, j int) bool {
		a, b := obs[i], obs[j]
		if a.callee != b.callee {
			return a.callee < b.callee
		}
		if a.loc != b.loc {
			return a.loc < b.loc
		}
		if a.caller != b.caller {
			return a.caller < b.caller
		}
		return a.inst < b.inst
	})
	type key struct{ callee, loc string }
	actuals := map[key]*sketch.Sketch{}
	for _, o := range obs {
		k := key{o.callee, o.loc}
		if prev, ok := actuals[k]; ok {
			s := tr.begin(laySketch, "Sketch.Join")
			actuals[k] = prev.Join(o.sk)
			tr.end(s)
		} else {
			actuals[k] = o.sk
		}
	}
	for _, name := range sortedProcs(res) {
		pr := res.Procs[name]
		for _, l := range pr.FormalIns {
			loc := l.ParamName()
			joined, ok := actuals[key{name, loc}]
			if !ok {
				continue
			}
			spec := joined
			if formal, ok := pr.Sketch.Descend(label.Word{label.In(loc)}); ok {
				s := tr.begin(laySketch, "Sketch.Meet")
				spec = formal.Meet(joined)
				tr.end(s)
			}
			pr.SpecializedIns[loc] = spec
			c.states += spec.Size()
		}
	}
	tr.end(f3)

	s = tr.begin(layCtype, "ctype.Converter")
	sigs := renderSignatures(res)
	tr.end(s)
	return opResult{res: res, sigs: sigs}, c, nil
}

// solveProc is F.2 for one procedure: its sketch, plus the actual
// sketches it passes at each callsite of a program procedure.
func solveProc(p string, gr *absint.Result, infos map[string]*cfg.ProcInfo, sc *constraints.Scheme, lat *lattice.Lattice, tr *tracer) (*solver.ProcResult, []actualObs) {
	s := tr.begin(laySketch, "sketch.NewBuilder")
	shapes := sketch.NewBuilder(gr.Constraints, lat)
	tr.end(s)
	s = tr.begin(layPgraph, "pgraph.Build")
	g := pgraph.Build(gr.Constraints, lat)
	tr.end(s)
	s = tr.begin(layPgraph, "pgraph.Saturate")
	g.Saturate()
	tr.end(s)
	s = tr.begin(laySketch, "sketch.NewDecorator")
	dec := sketch.NewDecorator(g)
	tr.end(s)
	defer func() {
		dec.Release()
		g.Release()
		shapes.Release()
	}()
	solve := func(v constraints.Var) *sketch.Sketch {
		s := tr.begin(laySketch, "sketch.SketchFor")
		sk := shapes.SketchFor(v, -1)
		tr.end(s)
		s = tr.begin(laySketch, "sketch.Decorate")
		dec.Decorate(sk, v)
		tr.end(s)
		return sk
	}
	pi := infos[p]
	pr := &solver.ProcResult{
		Name:           p,
		FormalIns:      pi.FormalIns,
		HasOut:         pi.HasOut,
		Scheme:         sc,
		Sketch:         solve(constraints.Var(p)),
		SpecializedIns: map[string]*sketch.Sketch{},
		Constraints:    gr.Constraints,
	}
	var obs []actualObs
	for _, call := range gr.Calls {
		ci, ok := infos[call.Callee]
		if !ok {
			continue
		}
		rootSk := solve(call.Root)
		for _, l := range ci.FormalIns {
			if sub, ok := rootSk.Descend(label.Word{label.In(l.ParamName())}); ok {
				obs = append(obs, actualObs{callee: call.Callee, loc: l.ParamName(), caller: p, inst: call.Inst, sk: sub})
			}
		}
	}
	return pr, obs
}

// classTable groups procedure bodies into equivalence classes the way
// the solver's body-dedup layer does, remembering the program each
// class was first seen in.
type classTable struct {
	byHash map[uint64][]*bodyClass
	n      uint64
}

type bodyClass struct {
	fp *bodyfp.FP
	id uint64
	// first and last are the first and the latest program the class
	// was seen in.
	first, last int
}

func newClassTable() *classTable { return &classTable{byHash: map[uint64][]*bodyClass{}} }

// classify fingerprints the eligible procedures of program prog
// (single-member SCCs without self-calls), callees first so a caller's
// fingerprint carries its callees' classes. It returns how many were
// already seen earlier in the same program and how many in an earlier
// program. A procedure can count in both.
func (ct *classTable) classify(cg *cfg.CallGraph, prog int, tr *tracer) (inProgram, earlier int) {
	// CtxSig stays empty: every program here runs under one context.
	conf := bodyfp.Config{LatticeSig: lattice.Default().Signature()}
	classOf := map[string]uint64{}
	calleeID := func(target string) (bodyfp.CalleeID, bool) {
		if id, ok := classOf[target]; ok {
			return bodyfp.CalleeID{Kind: bodyfp.CalleeClass, ID: id}, true
		}
		return bodyfp.CalleeID{Kind: bodyfp.CalleeNamed, Name: target}, true
	}
	for _, scc := range cg.SCCs {
		if len(scc) != 1 || selfCalls(cg, scc[0]) {
			continue
		}
		s := tr.begin(layBodyfp, "bodyfp.Compute")
		fp := bodyfp.Compute(cg.Prog.ProcIndex[scc[0]], conf, calleeID)
		tr.end(s)
		if fp == nil {
			continue
		}
		cls, isNew := ct.lookup(fp, prog)
		classOf[scc[0]] = cls.id
		if !isNew && cls.last == prog {
			inProgram++
		}
		if cls.first < prog {
			earlier++
		}
		cls.last = prog
	}
	return inProgram, earlier
}

func selfCalls(cg *cfg.CallGraph, p string) bool {
	for _, c := range cg.Callees[p] {
		if c == p {
			return true
		}
	}
	return false
}

// lookup returns fp's class, creating it (first seen in prog) if new.
func (ct *classTable) lookup(fp *bodyfp.FP, prog int) (cls *bodyClass, isNew bool) {
	for _, c := range ct.byHash[fp.Hash()] {
		if c.fp.EquivalentTo(fp) {
			return c, false
		}
	}
	cls = &bodyClass{fp: fp, id: ct.n, first: prog, last: prog}
	ct.n++
	ct.byHash[fp.Hash()] = append(ct.byHash[fp.Hash()], cls)
	return cls, true
}
