// Package solver orchestrates whole-program type inference
// (Noonan et al., PLDI 2016, §4.2 and Appendix F) as a staged,
// concurrent scheduling pipeline:
//
//  1. InferProcTypes (F.1): traverse the call graph's strongly
//     connected components bottom-up; generate constraints for each
//     SCC with callee schemes instantiated at callsites; simplify the
//     SCC constraint set relative to each member procedure to obtain
//     its polymorphic type scheme. Scheduling is per-SCC readiness
//     (see schedule.go): each SCC counts its unfinished callee SCCs,
//     workers pull ready SCCs from a work-stealing pool (conc.RunPool)
//     and a completed SCC signals its callers — no level barrier, so a
//     straggler only blocks its true ancestors. Simplification — the
//     dominant cost on realistic corpora — is memoized through a
//     fingerprint-keyed LRU (pgraph.SimplifyCache), so duplicate leaf
//     procedures are simplified once.
//  2. InferTypes (F.2): solve each procedure's constraint set into
//     sketches (shape inference + lattice-bound decoration). A
//     procedure's F.2 becomes ready the moment its own F.1 scheme is
//     published, so sketch solving of finished subtrees overlaps
//     scheme inference still running above them; the callsite-actual
//     sketches it observes are funneled into an accumulator and joined
//     in a canonical order (callee, location, caller, callsite) so the
//     result does not depend on scheduling. Like F.1, this phase is
//     memoized: a fingerprint-keyed LRU (sketch.ShapeCache) serves
//     sealed, immutable decorated sketches to procedures whose
//     constraint sets are isomorphic to one already solved, skipping
//     Build+Saturate+shape inference entirely on a hit.
//  3. RefineParameters (F.3): specialize each procedure's formal
//     sketches with the join of the actual sketches observed at its
//     callsites, trading generality for types closer to the source
//     (Example 4.3 / G.1). Procedures are processed in sorted name
//     order, again fanned out per procedure.
//
// Every phase is deterministic: for a fixed program and options the
// pipeline produces byte-identical schemes and specialized sketches
// regardless of Options.Workers, of steal order, and of task timing —
// an invariant the schedule-perturbation suite drives adversarially
// (internal/schedtest).
//
// Two allocation-discipline layers keep the pipeline off the garbage
// collector's hot path (see docs/ARCHITECTURE.md): derived type
// variables are interned handles (internal/intern) so constraint sets,
// graph nodes and shape classes index by dense ids instead of rendered
// strings, and the per-SCC constraint graphs plus per-procedure shape
// builders are drawn from sync.Pools (pgraph.Graph.Release,
// sketch.Builder.Release) so the fan-out reuses their storage across
// procedures. Pooled scratch never escapes into results: sketches
// share no storage with the Builder that extracted them, and
// cache-served sketches are sealed (immutable) besides.
package solver

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"retypd/internal/absint"
	"retypd/internal/asm"
	"retypd/internal/cfg"
	"retypd/internal/conc"
	"retypd/internal/constraints"
	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/lru"
	"retypd/internal/pgraph"
	"retypd/internal/sketch"
	"retypd/internal/summaries"
)

// Options configures the pipeline.
type Options struct {
	// Absint configures constraint generation; the zero value is the
	// paper-faithful configuration.
	Absint absint.Options
	// MaxSketchDepth truncates sketch recursion when ≥ 0 (used by the
	// TIE-style baseline, which lacks recursive types); -1 means
	// unbounded.
	MaxSketchDepth int
	// NoSpecialize disables the F.3 parameter-refinement pass.
	NoSpecialize bool
	// Workers bounds the concurrency of every pipeline phase: 1 runs
	// fully sequentially on the calling goroutine, values ≤ 0 use one
	// worker per available CPU. Output is identical for every value.
	Workers int
	// NoSchemeCache disables the engine's scheme-simplification memo
	// (pgraph.SimplifyCache) for this run: every SCC member is
	// simplified from its saturated graph. Output is unchanged.
	NoSchemeCache bool
	// NoShapeCache disables the engine's phase-2 shape memo
	// (sketch.ShapeCache) for this run: every procedure runs
	// Build+Saturate+shape inference+decoration. Output is unchanged.
	NoShapeCache bool
	// NoBodyDedup disables the earliest memo layer: whole-procedure
	// body deduplication ahead of abstract interpretation (see
	// internal/bodyfp and dedup.go). With it off, every procedure runs
	// constraint generation and the per-procedure cache lookups even
	// when its body is equivalent to one already processed. The layer
	// never changes output — only how often the front end runs — and is
	// automatically off when Absint.Covered is set (trace-restricted
	// generation distinguishes procedures by name).
	NoBodyDedup bool
	// MaxInstructions and MaxProcedures are admission guards: a program
	// exceeding either bound is rejected with a *LimitError before any
	// pipeline work — or goroutine — starts. 0 means unlimited. They
	// exist for multi-tenant callers that must bound the cost of one
	// analysis unit; they never change output for admitted programs.
	MaxInstructions int
	MaxProcedures   int
	// SchedHooks perturbs and observes the work-stealing executor's
	// scheduling (delays, steal-order bias, per-task fault injection via
	// BeforeTask). Test-only: the determinism suite sets it to prove
	// output invariance under adversarial schedules and the
	// fault-injection harness (internal/faultinject) rides it to kill or
	// stall chosen tasks; production callers leave it nil. Never part of
	// output, never compared across runs.
	SchedHooks *conc.SchedHooks
	// ctx is the run's cancellation context, set by InferContext (nil
	// means context.Background()). Unexported: cancellation enters
	// through the context-aware entry points, never as an ad-hoc knob.
	ctx context.Context
	// schedTrace observes readiness-scheduler events (see schedEvent).
	// Test-only, like schedHooks: the property tests record the event
	// stream to check exactly-once execution and dependency ordering.
	// Called concurrently from worker goroutines; implementations must
	// synchronize. Never part of output.
	schedTrace func(schedEvent)
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{MaxSketchDepth: -1}
}

// ProcResult collects everything inferred for one procedure.
type ProcResult struct {
	Name      string
	FormalIns []cfg.Loc
	HasOut    bool
	// Scheme is the simplified polymorphic type scheme (Def. 3.4).
	Scheme *constraints.Scheme
	// Sketch is the solved sketch of the procedure's type variable;
	// formal-in and out sketches hang off it under in_*/out_* edges.
	Sketch *sketch.Sketch
	// SpecializedIns maps formal location names to the F.3-refined
	// parameter sketches (nil when no callsite evidence exists).
	SpecializedIns map[string]*sketch.Sketch
	// Constraints is never set by the pipeline: raw constraint sets are
	// derived on demand by Result.RawConstraints. The field remains only
	// so code that builds ProcResult values itself (perfbench's traced
	// replay) keeps compiling.
	Constraints *constraints.Set
}

// InSketch returns the sketch of the formal at location name
// (specialized if available, otherwise the subtree of Sketch).
func (pr *ProcResult) InSketch(loc string) (*sketch.Sketch, bool) {
	if sk, ok := pr.SpecializedIns[loc]; ok && sk != nil {
		return sk, true
	}
	if pr.Sketch == nil {
		return nil, false
	}
	return pr.Sketch.Descend(label.Word{label.In(loc)})
}

// OutSketch returns the sketch of the return value.
func (pr *ProcResult) OutSketch() (*sketch.Sketch, bool) {
	if pr.Sketch == nil {
		return nil, false
	}
	return pr.Sketch.Descend(label.Word{label.Out("eax")})
}

// Result is the whole-program inference result.
type Result struct {
	Prog  *asm.Program
	Lat   *lattice.Lattice
	Infos map[string]*cfg.ProcInfo
	Procs map[string]*ProcResult
	// SCCs is the bottom-up SCC order used.
	SCCs [][]string
	// MemoStats reports this run's activity in each memo layer.
	MemoStats
	// ReplayedProcs and RecomputedProcs report incremental re-analysis
	// (Engine.Reanalyze): procedures replayed verbatim from the
	// previous session versus procedures that went through the full
	// pipeline because their body — or a transitive callee's — changed.
	// Both zero for non-incremental runs.
	ReplayedProcs, RecomputedProcs uint64

	// sums and absintOpts are the run's summaries table and generation
	// options, retained so RawConstraints can regenerate any procedure's
	// constraint set exactly as F.1 generated it.
	sums       summaries.Table
	absintOpts absint.Options
}

// RawConstraints returns procedure p's generated, unsimplified
// constraint set (Appendix A) — the input F.1 simplified into p's
// scheme — or nil when p is not a procedure of the program. No run
// carries raw sets; this re-runs constraint generation with the scheme
// visibility F.1 had: a callee outside p's SCC instantiates its
// published scheme, a same-SCC callee links through its bare interface
// variable.
func (r *Result) RawConstraints(p string) *constraints.Set {
	pi, ok := r.Infos[p]
	if !ok {
		return nil
	}
	var scc []string
	for _, s := range r.SCCs {
		if slices.Contains(s, p) {
			scc = s
			break
		}
	}
	schemeOf := func(name string) *constraints.Scheme {
		if pr, ok := r.Procs[name]; ok && !slices.Contains(scc, name) {
			return pr.Scheme
		}
		return nil
	}
	sums := r.sums
	if sums == nil {
		sums = summaries.Default()
	}
	return absint.Generate(pi, r.Infos, schemeOf, sums, latticeConst(r.Lat), r.absintOpts).Constraints
}

// latticeConst reports which variables name lattice constants; generation
// never renames or tags those.
func latticeConst(lat *lattice.Lattice) func(constraints.Var) bool {
	return func(v constraints.Var) bool {
		_, ok := lat.Elem(string(v))
		return ok
	}
}

// MemoStats counts one run's lookups in the three memo layers. Every
// count is per run: concurrent runs on one Engine never see each
// other's lookups. All fields of a disabled layer are zero.
type MemoStats struct {
	// SchemeCacheHits and SchemeCacheMisses count lookups in the
	// scheme-simplification memo (pgraph.SimplifyCache).
	SchemeCacheHits, SchemeCacheMisses uint64
	// ShapeCacheHits and ShapeCacheMisses count lookups in the phase-2
	// shape memo (sketch.ShapeCache).
	ShapeCacheHits, ShapeCacheMisses uint64
	// BodyDedupHits counts procedures served by whole-body
	// deduplication from a representative of the same run (they skipped
	// constraint generation entirely); BodyDedupCrossHits counts
	// procedures served from a stored body entry of the engine's
	// persistent class table — published by an earlier run, possibly of
	// a different program, possibly in a different process;
	// BodyDedupMisses counts fingerprinted procedures that ran the full
	// path (class representatives and excluded members).
	BodyDedupHits, BodyDedupCrossHits, BodyDedupMisses uint64
}

// Add accumulates o into m (suite-wide totals).
func (m *MemoStats) Add(o MemoStats) {
	m.SchemeCacheHits += o.SchemeCacheHits
	m.SchemeCacheMisses += o.SchemeCacheMisses
	m.ShapeCacheHits += o.ShapeCacheHits
	m.ShapeCacheMisses += o.ShapeCacheMisses
	m.BodyDedupHits += o.BodyDedupHits
	m.BodyDedupCrossHits += o.BodyDedupCrossHits
	m.BodyDedupMisses += o.BodyDedupMisses
}

// memoTally counts one memo layer's lookups for one run.
type memoTally struct{ hits, misses atomic.Uint64 }

func (t *memoTally) count(o lru.Outcome) {
	switch o {
	case lru.Hit:
		t.hits.Add(1)
	case lru.Miss:
		t.misses.Add(1)
	}
}

// Infer runs the full pipeline on a fresh, session-less Engine. It
// cannot be cancelled; a task panic — contained into an *AnalysisError
// — is re-raised. Cancellable, error-returning callers use InferContext.
func Infer(prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) *Result {
	res, err := InferContext(context.Background(), prog, lat, sums, opts)
	if err != nil {
		// Background is never cancelled, so err is an *AnalysisError or
		// a *LimitError; the legacy contract surfaces both as panics.
		panic(err)
	}
	return res
}

// InferContext runs the full pipeline under ctx on a fresh, session-less
// Engine, so one-shot callers get the engine's memo stack for the
// duration of the call and its panic backstop. Cancellation is
// cooperative, observed at task boundaries: the pipeline stops handing
// out tasks, drains its pool, and returns ctx.Err() — an
// already-cancelled ctx returns before any worker is spawned. A task
// panic is contained by the scheduler and returned as a structured
// *AnalysisError; inputs exceeding Options.MaxInstructions /
// MaxProcedures are rejected with a *LimitError. In every error case
// nothing was published: shared caches hold only completed computes and
// the returned Result is nil.
func InferContext(ctx context.Context, prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) (*Result, error) {
	e := NewEngine(0, 0)
	e.DisableSessionRecording()
	return e.InferContext(ctx, prog, lat, sums, opts)
}

// admit applies the admission guards to prog. It runs before the
// pipeline allocates anything, so a rejected program costs no goroutine
// and touches no cache.
func admit(prog *asm.Program, opts Options) error {
	if opts.MaxProcedures > 0 && len(prog.Procs) > opts.MaxProcedures {
		return &LimitError{What: "procedures", Limit: opts.MaxProcedures, Actual: len(prog.Procs)}
	}
	if opts.MaxInstructions > 0 {
		if n := prog.NumInsts(); n > opts.MaxInstructions {
			return &LimitError{What: "instructions", Limit: opts.MaxInstructions, Actual: n}
		}
	}
	return nil
}

// infer is the pipeline entry; only Engine methods reach it, so every
// run uses the engine's memo stack (minus the layers opts disables).
// infos and cg may be pre-computed (Reanalyze rebases unchanged
// per-procedure analyses); inc, when non-nil, switches the run into
// incremental mode: procedures outside inc.dirty are replayed from
// their session snapshots instead of re-solved. The returned artifacts carry the
// per-procedure outputs the engine records into its next session.
//
// On error the partially-built Result is discarded (nil, nil, err):
// admission guards reject before any work, cancellation surfaces as
// ctx.Err(), and a contained task panic as *AnalysisError. Shared
// caches are safe in every case — they only ever store completed
// computes, and their single-flight entries release waiters on panic.
func (e *Engine) infer(prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options,
	infos map[string]*cfg.ProcInfo, cg *cfg.CallGraph, inc *incrementalPlan) (*Result, *runArtifacts, error) {
	ctx := opts.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := admit(prog, opts); err != nil {
		return nil, nil, err
	}
	if sums == nil {
		sums = summaries.Default()
	}
	// The run context is cancelled when any task faults, so a contained
	// panic drains the pool promptly instead of letting unrelated
	// subtrees finish work whose results will be discarded.
	g := newGuard(ctx, opts.SchedHooks)
	defer g.cancelRun()
	if cg == nil {
		g.runGuarded("callgraph", -1, "", func() { cg = cfg.BuildCallGraph(prog) })
		if err := g.finish(nil); err != nil {
			return nil, nil, err
		}
	}
	isConst := latticeConst(lat)

	res := &Result{
		Prog:       prog,
		Lat:        lat,
		Procs:      make(map[string]*ProcResult, len(prog.Procs)),
		SCCs:       cg.SCCs,
		sums:       sums,
		absintOpts: opts.Absint,
	}

	cache, shapeCache := e.schemes, e.shapes
	if opts.NoSchemeCache {
		cache = nil
	}
	if opts.NoShapeCache {
		shapeCache = nil
	}

	pl := &pipeline{
		guard:      g,
		lat:        lat,
		infos:      infos,
		sums:       sums,
		isConst:    isConst,
		opts:       opts,
		cache:      cache,
		shapeCache: shapeCache,
		workers:    conc.Limit(opts.Workers),
		inc:        inc,
	}
	pl.initIndex(cg)
	if inc == nil && !opts.NoBodyDedup && opts.Absint.Covered == nil {
		// Body dedup is skipped in incremental mode: the dirty set is
		// small by construction, and dedup classification needs whole
		// levels. Output is identical either way (golden-tested).
		pl.dedup = newDedupState(lat, opts, sums, isConst, e.bodies)
	}
	if inc != nil {
		// Clean procedures replay their previous schemes; publish them
		// before any task runs so dirty callers see every callee.
		for i, p := range pl.order {
			if !inc.dirty[p] {
				pl.schemes[i] = inc.snaps[p].scheme
			}
		}
	}

	// Phases 1+2 (F.1/F.2), overlapped on the readiness graph: the
	// dedup classification pre-pass pins class representatives
	// deterministically, then every SCC's scheme inference and every
	// procedure's sketch solving run as readiness-gated tasks on the
	// work-stealing pool. Each phase's error is resolved through
	// pl.finish: a recorded task fault (*AnalysisError) wins over the
	// cancellation it triggered.
	var plans []*memberPlan
	if pl.dedup != nil {
		var err error
		plans, err = pl.classifyBodies(cg)
		if err = pl.finish(err); err != nil {
			return nil, nil, err
		}
	} else {
		plans = make([]*memberPlan, len(cg.SCCs))
	}
	// The per-procedure CFG analyses run *after* classification (the
	// fingerprint needs only the raw instruction stream), so duplicate
	// bodies are served their analyses like they are served schemes:
	// each class's first in-program occurrence pays cfg.Analyze, later
	// identically-registered members rebase it (CloneForProgram).
	if infos == nil {
		var err error
		if infos, err = pl.buildInfos(prog); err != nil {
			return nil, nil, err
		}
	}
	pl.infos = infos
	res.Infos = infos
	if inc != nil {
		if err := pl.finish(pl.replayClean()); err != nil {
			return nil, nil, err
		}
	}
	if err := pl.finish(pl.buildSched(cg, plans).run()); err != nil {
		return nil, nil, err
	}
	// Phase 3 (F.3): the sequential actuals grouping and the
	// per-procedure join and refinement fan-out, both under the same
	// containment.
	var actuals [][]actualObs
	pl.runGuarded("F.3", -1, "", func() { actuals = pl.collectActuals(res) })
	if err := pl.finish(nil); err != nil {
		return nil, nil, err
	}
	if err := pl.finish(pl.refineParameters(actuals)); err != nil {
		return nil, nil, err
	}

	res.SchemeCacheHits, res.SchemeCacheMisses = pl.schemeTally.hits.Load(), pl.schemeTally.misses.Load()
	res.ShapeCacheHits, res.ShapeCacheMisses = pl.shapeTally.hits.Load(), pl.shapeTally.misses.Load()
	if pl.dedup != nil {
		res.BodyDedupHits, res.BodyDedupMisses = pl.dedup.hits.Load(), pl.dedup.misses.Load()
		res.BodyDedupCrossHits = pl.dedup.crossHits.Load()
		// Publish only now, after every phase succeeded: entries must
		// never expose results of a faulted or cancelled run.
		pl.dedup.publish(pl, prog)
	}
	if inc != nil {
		for _, p := range pl.order {
			if inc.dirty[p] {
				res.RecomputedProcs++
			} else {
				res.ReplayedProcs++
			}
		}
	}
	return res, &runArtifacts{cg: cg, order: pl.order, prs: pl.prs, obs: pl.obs}, nil
}

// runArtifacts carries the per-procedure outputs of one pipeline run in
// canonical order, for the engine's session recording.
type runArtifacts struct {
	cg    *cfg.CallGraph
	order []string
	prs   []*ProcResult
	obs   [][]actualObs
}

// incrementalPlan tells a pipeline run which procedures changed since
// the engine's previous session. dirty covers every procedure of the
// new program; snaps is the previous session's snapshot map, which
// holds every clean procedure's snapshot. The plan's construction
// (Engine.Reanalyze)
// guarantees the replay soundness invariant: a clean procedure's
// transitive callees are all clean, so its previous scheme, sketch and
// callsite observations are byte-identical to what a from-scratch run
// would compute.
type incrementalPlan struct {
	dirty map[string]bool
	snaps map[string]*procSnap
}

// pipeline carries the shared read-mostly state of one Infer run.
type pipeline struct {
	lat        *lattice.Lattice
	infos      map[string]*cfg.ProcInfo
	sums       summaries.Table
	isConst    func(constraints.Var) bool
	opts       Options
	cache      *pgraph.SimplifyCache
	shapeCache *sketch.ShapeCache
	workers    int

	// schemeTally and shapeTally count this run's lookups in the two
	// engine-shared memos; the caches themselves keep no counters.
	schemeTally, shapeTally memoTally

	// guard is the run's panic containment and run context.
	*guard

	// order is the canonical procedure order (top-down SCC order,
	// members in SCC slice order); procIdx its inverse. Both are frozen
	// before scheduling and read-only afterwards; every per-procedure
	// slice below is indexed by procIdx.
	order   []string
	procIdx map[string]int

	// schemes, gens and fps are per-procedure slots written exactly
	// once, by the owning SCC's F.1 task, and read only by tasks the
	// readiness graph orders after that write (caller SCCs' F.1, the
	// procedure's own F.2, members translating a representative) — so
	// concurrent tasks touch disjoint elements and a shared map's
	// write/read races cannot arise. fps carries the constraint-set
	// fingerprint of each single-member SCC forward so Phase 2 need not
	// recompute it (a multi-member SCC's members have per-procedure
	// sets that differ from the SCC union, so those are fingerprinted
	// in Phase 2).
	schemes []*constraints.Scheme
	gens    []*absint.Result
	fps     []*pgraph.FP

	// memberOf marks procedures served by body-dedup translation: set
	// by the member's own F.1 task when the scheme surgery succeeds,
	// read by its F.2 task (ordered after F.1 by the readiness graph).
	memberOf []*memberPlan

	// dedup is the whole-body deduplication layer (nil when disabled).
	// Its class tables are written only in the sequential
	// classification pre-pass (classifyBodies); during scheduling the
	// tasks touch nothing but its atomic hit/miss counters.
	dedup *dedupState

	// inc is the incremental plan of a Reanalyze run (nil for full
	// runs): clean SCCs' F.1 tasks are no-ops (schemes pre-published),
	// clean procedures' F.2 tasks replay their snapshots. Both still
	// ride the readiness graph, signalling dependents like fresh work.
	inc *incrementalPlan

	// prs and obs are the phase-2 outputs, parallel to order, retained
	// for the engine's session recording.
	prs []*ProcResult
	obs [][]actualObs
}

// initIndex freezes the canonical procedure order and sizes every
// per-procedure slot slice.
func (pl *pipeline) initIndex(cg *cfg.CallGraph) {
	for i := len(cg.SCCs) - 1; i >= 0; i-- {
		pl.order = append(pl.order, cg.SCCs[i]...)
	}
	n := len(pl.order)
	pl.procIdx = make(map[string]int, n)
	for i, p := range pl.order {
		pl.procIdx[p] = i
	}
	pl.schemes = make([]*constraints.Scheme, n)
	pl.gens = make([]*absint.Result, n)
	pl.fps = make([]*pgraph.FP, n)
	pl.memberOf = make([]*memberPlan, n)
	pl.prs = make([]*ProcResult, n)
	pl.obs = make([][]actualObs, n)
}

// buildInfos runs the per-procedure CFG analyses for prog — the work
// cfg.AnalyzeProgram does — but serves body-dedup members their class
// anchor's analyses by rebasing (cfg.ProcInfo.CloneForProgram) when the
// member's register assignment is identical, then completes the
// interprocedural HasOut fixpoint over the mixed set. Each class's
// first in-program occurrence always pays the real cfg.Analyze (every
// procedure needs a ProcInfo regardless of how its schemes are
// served); the fan-out is deterministic per procedure, so worker count
// never reaches output. Each cfg.Analyze runs under the run's panic
// containment as phase "cfg", and the fan-out observes the run context.
func (pl *pipeline) buildInfos(prog *asm.Program) (map[string]*cfg.ProcInfo, error) {
	var cloneFrom map[string]string
	if pl.dedup != nil {
		cloneFrom = pl.dedup.cloneFrom
	}
	fresh := make([]*asm.Proc, 0, len(prog.Procs))
	for _, p := range prog.Procs {
		if _, ok := cloneFrom[p.Name]; !ok {
			fresh = append(fresh, p)
		}
	}
	analyzed := make([]*cfg.ProcInfo, len(fresh))
	err := conc.ForEachCtx(pl.ctx, pl.workers, len(fresh), func(i int) {
		pl.runGuarded("cfg", -1, fresh[i].Name, func() { analyzed[i] = cfg.Analyze(prog, fresh[i]) })
	})
	// A contained fault may leave nil analyses behind even when every
	// item was handed out; finish surfaces it before they are read.
	if err = pl.finish(err); err != nil {
		return nil, err
	}
	infos := make(map[string]*cfg.ProcInfo, len(prog.Procs))
	for i, p := range fresh {
		infos[p.Name] = analyzed[i]
	}
	for _, p := range prog.Procs {
		if a, ok := cloneFrom[p.Name]; ok {
			infos[p.Name] = infos[a].CloneForProgram(prog, p)
		}
	}
	cfg.FinishHasOut(infos)
	return infos, nil
}

// guard is a run's panic containment. ctx is the run context (the
// caller's ctx wrapped in a cancel); cancelRun cancels it. The first
// task fault records itself in ferr under failMu and then calls
// cancelRun — in that order, so by the time any phase observes the
// cancellation the structured error is already readable.
type guard struct {
	hooks     *conc.SchedHooks
	ctx       context.Context
	cancelRun context.CancelFunc
	failMu    sync.Mutex
	ferr      *AnalysisError
}

// newGuard derives a cancellable run context from ctx; the caller must
// call cancelRun once the run is over.
func newGuard(ctx context.Context, hooks *conc.SchedHooks) *guard {
	runCtx, cancel := context.WithCancel(ctx)
	return &guard{hooks: hooks, ctx: runCtx, cancelRun: cancel}
}

// fail records a task fault (first one wins) and cancels the run
// context so every pool drains at its next task boundary.
func (g *guard) fail(phase string, scc int, proc string, value any, stack []byte) {
	g.failMu.Lock()
	if g.ferr == nil {
		g.ferr = &AnalysisError{Phase: phase, SCC: scc, Proc: proc, Value: value, Stack: stack}
	}
	g.failMu.Unlock()
	g.cancelRun()
}

// failed returns the run's recorded fault, if any.
func (g *guard) failed() *AnalysisError {
	g.failMu.Lock()
	defer g.failMu.Unlock()
	return g.ferr
}

// finish resolves one phase's outcome into the run's authoritative
// error: a recorded task fault wins over the pool cancellation it
// triggered (phaseErr is then the run context's Canceled); otherwise
// the phase error — the caller's own cancellation or deadline — stands.
func (g *guard) finish(phaseErr error) error {
	if e := g.failed(); e != nil {
		return e
	}
	return phaseErr
}

// runGuarded is the run's panic containment: every identified task
// body — the call graph, per-procedure CFG analyses, F.0
// classification items, F.1 scheme inference, F.2 sketch solving, F.3
// refinement items — runs inside it. A panic (from the
// task or from an injected SchedHooks.BeforeTask hook, which runs in
// the same scope precisely so injected faults surface with the task's
// identity) is converted into the run's *AnalysisError and cancels the
// run; it never crosses a goroutine boundary raw. ok reports whether f
// completed, so schedulers signal dependents only for real results.
func (g *guard) runGuarded(phase string, scc int, proc string, f func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			g.fail(phase, scc, proc, r, debug.Stack())
		}
	}()
	if h := g.hooks; h != nil && h.BeforeTask != nil {
		name := proc
		if name == "" && scc >= 0 {
			name = fmt.Sprintf("scc=%d", scc)
		}
		h.BeforeTask(phase, name)
	}
	f()
	return true
}

// schemeOf resolves a procedure's published scheme (the absint
// SchemeLookup of this run): nil for unknown names and for procedures
// whose F.1 has not been signalled to the caller — which, under the
// readiness graph, is exactly the same-SCC case the monomorphic link
// is the correct treatment for.
func (pl *pipeline) schemeOf(name string) *constraints.Scheme {
	i, ok := pl.procIdx[name]
	if !ok {
		return nil
	}
	return pl.schemes[i]
}

// publishSCC stores one SCC's F.1 outputs into the per-procedure slots.
func (pl *pipeline) publishSCC(scc []string, out *sccResult) {
	for j, p := range scc {
		i := pl.procIdx[p]
		pl.gens[i] = out.gens[j]
		pl.schemes[i] = out.schemes[j]
		if out.fp != nil {
			pl.fps[i] = out.fp
		}
	}
}

// runMemberF1 serves a dedup member's F.1 by translating its source's
// scheme — the stored body entry's for cross-program serves, the
// in-program representative's published one otherwise; when the rename
// surgery cannot classify a variable it falls back to the full path
// (any leftover F.2 gate on a representative then only delays, never
// blocks).
func (pl *pipeline) runMemberF1(p string, plan *memberPlan) {
	i := pl.procIdx[p]
	var sc *constraints.Scheme
	ok := false
	if plan.entry != nil {
		sc, ok = plan.ren.TranslateScheme(plan.entry.scheme)
	} else if rep := pl.schemeOf(plan.rep); rep != nil {
		sc, ok = plan.ren.TranslateScheme(rep)
	}
	if !ok {
		pl.publishSCC([]string{p}, pl.inferSCC([]string{p}))
		pl.dedup.misses.Add(1)
		return
	}
	pl.schemes[i] = sc
	pl.memberOf[i] = plan
	if plan.entry != nil {
		pl.dedup.crossHits.Add(1)
	} else {
		pl.dedup.hits.Add(1)
	}
}

// sccResult is the output of scheme inference for one SCC.
type sccResult struct {
	gens    []*absint.Result      // parallel to the SCC's member slice
	schemes []*constraints.Scheme // likewise
	// fp is the SCC constraint set's fingerprint, carried forward to
	// Phase 2 for single-member SCCs (where the SCC set and the
	// member's generated set coincide).
	fp *pgraph.FP
}

// inferSCC generates constraints for every member of one SCC and
// simplifies the SCC set relative to each member (its type scheme).
func (pl *pipeline) inferSCC(scc []string) *sccResult {
	out := &sccResult{
		gens:    make([]*absint.Result, len(scc)),
		schemes: make([]*constraints.Scheme, len(scc)),
	}
	var sccCs *constraints.Set
	if len(scc) == 1 {
		// The SCC union of a single member IS its generated set (same
		// contents, same order); reuse it instead of re-hashing every
		// constraint into a copy. Generate returns a fresh set, and the
		// pipeline only ever reads it afterwards.
		gr := absint.Generate(pl.infos[scc[0]], pl.infos, pl.schemeOf, pl.sums, pl.isConst, pl.opts.Absint)
		out.gens[0] = gr
		sccCs = gr.Constraints
	} else {
		sccCs = constraints.NewSet()
		for j, p := range scc {
			gr := absint.Generate(pl.infos[p], pl.infos, pl.schemeOf, pl.sums, pl.isConst, pl.opts.Absint)
			out.gens[j] = gr
			sccCs.InsertAll(gr.Constraints)
		}
	}

	// The saturated graph is shared by every member's simplification
	// and built at most once per SCC — not at all when every member
	// hits the memo — and recycled through the pgraph pool afterwards.
	var g *pgraph.Graph
	build := func() *pgraph.Graph {
		if g == nil {
			g = pgraph.Build(sccCs, pl.lat)
			g.Saturate()
		}
		return g
	}
	var fp *pgraph.FP
	if pl.cache != nil || (pl.shapeCache != nil && len(scc) == 1) {
		fp = pgraph.Fingerprint(sccCs, pl.lat)
	}
	if len(scc) == 1 && pl.shapeCache != nil {
		// A single-member SCC's constraint set IS the member's generated
		// set (same contents, same insertion order), so its fingerprint —
		// including the rename map — is reusable by the Phase-2 shape
		// memo without recomputation.
		out.fp = fp
	}
	for j, p := range scc {
		root := constraints.Var(p)
		simp, o := pl.cache.Simplify(fp, root, build)
		pl.schemeTally.count(o)
		out.schemes[j] = &constraints.Scheme{
			Root:        root,
			Constraints: simp.Constraints,
			Existential: simp.Existential,
		}
	}
	if g != nil {
		g.Release()
	}
	return out
}

// actualKey identifies one callee formal for F.3 joining.
type actualKey struct{ callee, loc string }

// actualObs is one observed callsite-actual sketch, tagged with its
// origin so the join order can be canonicalized.
type actualObs struct {
	key    actualKey
	caller string
	inst   int
	sk     *sketch.Sketch
}

// collectActuals gathers the scheduled F.2 results: publish every
// procedure's result and group the callsite actuals by callee (indexed
// like pl.order) for refineParameters to join.
func (pl *pipeline) collectActuals(res *Result) [][]actualObs {
	for i, p := range pl.order {
		res.Procs[p] = pl.prs[i]
	}
	if pl.opts.NoSpecialize {
		return nil
	}
	byCallee := make([][]actualObs, len(pl.order))
	for _, obs := range pl.obs {
		for _, o := range obs {
			if i, ok := pl.procIdx[o.key.callee]; ok {
				byCallee[i] = append(byCallee[i], o)
			}
		}
	}
	return byCallee
}

// solveProc solves one procedure's sketch and records the actual
// sketches at its callsites for the callees' later refinement.
//
// Shape solving is memoized through pl.shapeCache: each requested
// variable's decorated sketch is looked up under the procedure's
// canonical constraint-set fingerprint, so a procedure isomorphic to
// one already solved never builds its shape quotient or saturates its
// constraint graph at all — the builder machinery below is constructed
// lazily, on the first cache miss.
func (pl *pipeline) solveProc(p string) (*ProcResult, []actualObs) {
	pi := pl.infos[p]
	idx := pl.procIdx[p]
	gr := pl.gens[idx]

	fp := pl.fps[idx]
	if fp == nil && pl.shapeCache != nil {
		fp = pgraph.Fingerprint(gr.Constraints, pl.lat)
	}

	// The shape Builder, constraint graph and Decorator are mutable
	// per-procedure scratch, drawn from their pools on the first miss
	// and recycled afterwards; sketches handed out of solve share no
	// storage with them (cache-served sketches are additionally sealed).
	var (
		shapes *sketch.Builder
		g      *pgraph.Graph
		dec    *sketch.Decorator
	)
	build := func(v constraints.Var) *sketch.Sketch {
		if shapes == nil {
			shapes = sketch.NewBuilder(gr.Constraints, pl.lat)
			g = pgraph.Build(gr.Constraints, pl.lat)
			dec = sketch.NewDecorator(g)
		}
		sk := shapes.SketchFor(v, pl.opts.MaxSketchDepth)
		dec.Decorate(sk, v)
		return sk
	}
	solve := func(v constraints.Var) *sketch.Sketch {
		sk, o := pl.shapeCache.SketchFor(fp, v, pl.opts.MaxSketchDepth, build)
		pl.shapeTally.count(o)
		return sk
	}
	defer func() {
		if dec != nil {
			dec.Release()
		}
		if g != nil {
			g.Release()
		}
		if shapes != nil {
			shapes.Release()
		}
	}()

	pr := &ProcResult{
		Name:           p,
		FormalIns:      pi.FormalIns,
		HasOut:         pi.HasOut,
		Scheme:         pl.schemes[idx],
		Sketch:         solve(constraints.Var(p)),
		SpecializedIns: map[string]*sketch.Sketch{},
	}

	var obs []actualObs
	if !pl.opts.NoSpecialize {
		for _, call := range gr.Calls {
			ci, ok := pl.infos[call.Callee]
			if !ok {
				continue
			}
			rootSk := solve(call.Root)
			for _, l := range ci.FormalIns {
				if sub, ok := rootSk.Descend(label.Word{label.In(l.ParamName())}); ok {
					obs = append(obs, actualObs{
						key:    actualKey{call.Callee, l.ParamName()},
						caller: p,
						inst:   call.Inst,
						sk:     sub,
					})
				}
			}
		}
	}
	return pr, obs
}

// refineParameters is Phase 3 (F.3): refine formals with the joined
// observed actuals, per procedure in canonical order. Each formal's
// observations are joined in (caller, callsite) order, so the join
// order is stable no matter which worker produced them. Items run under
// the run's panic containment and the fan-out observes the run context,
// so a fault or a cancellation stops the phase at an item boundary.
func (pl *pipeline) refineParameters(actuals [][]actualObs) error {
	if pl.opts.NoSpecialize {
		return nil
	}
	return conc.ForEachCtx(pl.ctx, pl.workers, len(pl.order), func(i int) {
		p := pl.order[i]
		pl.runGuarded("F.3", -1, p, func() {
			obs := actuals[i]
			if len(obs) == 0 {
				return
			}
			slices.SortStableFunc(obs, func(a, b actualObs) int {
				if c := strings.Compare(a.key.loc, b.key.loc); c != 0 {
					return c
				}
				if c := strings.Compare(a.caller, b.caller); c != 0 {
					return c
				}
				return a.inst - b.inst
			})
			pr := pl.prs[i]
			for _, l := range pr.FormalIns {
				loc := l.ParamName()
				var joined *sketch.Sketch
				for _, o := range obs {
					switch {
					case o.key.loc != loc:
					case joined == nil:
						joined = o.sk
					default:
						joined = joined.Join(o.sk)
					}
				}
				if joined == nil {
					continue
				}
				if spec, ok := pr.Sketch.DescendMeet(label.Word{label.In(loc)}, joined); ok {
					pr.SpecializedIns[loc] = spec
				} else {
					pr.SpecializedIns[loc] = joined
				}
			}
		})
	})
}

// DumpSchemes renders all inferred schemes, sorted by name (CLI/test
// helper).
func (r *Result) DumpSchemes() string {
	var names []string
	for n := range r.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s:\n  %s\n", n, r.Procs[n].Scheme)
	}
	return b.String()
}

// DumpSpecialized renders every F.3-specialized parameter sketch,
// sorted by procedure and location (determinism tests and the CLI).
func (r *Result) DumpSpecialized() string {
	var names []string
	for n := range r.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		pr := r.Procs[n]
		var locs []string
		for loc := range pr.SpecializedIns {
			locs = append(locs, loc)
		}
		sort.Strings(locs)
		for _, loc := range locs {
			fmt.Fprintf(&b, "%s.%s:\n%s", n, loc, pr.SpecializedIns[loc])
		}
	}
	return b.String()
}
