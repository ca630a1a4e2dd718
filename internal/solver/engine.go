package solver

import (
	"context"
	"hash/maphash"
	"runtime/debug"
	"strings"
	"sync"

	"retypd/internal/asm"
	"retypd/internal/bodyfp"
	"retypd/internal/cfg"
	"retypd/internal/conc"
	"retypd/internal/constraints"
	"retypd/internal/lattice"
	"retypd/internal/pgraph"
	"retypd/internal/sketch"
	"retypd/internal/summaries"
)

// Engine is the only owner of the memo stack and the only way into the
// pipeline: the scheme-simplification and shape caches and the body-class
// table, shared by every run through it, plus the session state
// incremental re-analysis diffs against. The package-level Infer and
// InferContext are one-shot wrappers over a fresh, session-less Engine;
// a service keeps one warm instead: run after run shares the memos,
// Reanalyze replays everything a small edit did not touch, and
// SaveCache/LoadCache move the memo stack across process restarts.
//
// Methods are safe for concurrent use. Concurrent Infer calls share the
// caches freely (their keys are canonical; see the cache sharing
// contracts) and each reports only its own memo lookups (MemoStats);
// session recording is last-writer-wins, and Reanalyze diffs against
// the most recently recorded session.
type Engine struct {
	schemes *pgraph.SimplifyCache
	shapes  *sketch.ShapeCache
	// bodies is the engine-scoped body-class table: the third, topmost
	// cache layer. Runs through this engine file every analyzed body
	// here; a later run (of this or any other program) whose body is
	// equivalent is served the sealed entry before its front end runs.
	bodies *bodyCache

	// noSessions disables session recording (DisableSessionRecording):
	// the engine is then a pure cache sharer.
	noSessions bool

	mu   sync.Mutex
	sess *session
}

// NewEngine returns an engine with empty caches bounded to the given
// capacities (≤ 0 selects the package defaults).
func NewEngine(schemeCap, shapeCap int) *Engine {
	return &Engine{
		schemes: pgraph.NewSimplifyCache(schemeCap),
		shapes:  sketch.NewShapeCache(shapeCap),
		bodies:  newBodyCache(),
	}
}

// CacheLen reports the current entry counts of the scheme and shape
// memos (observability).
func (e *Engine) CacheLen() (schemeEntries, shapeEntries int) {
	return e.schemes.Len(), e.shapes.Len()
}

// DisableSessionRecording turns the engine into a pure cache sharer:
// Infer skips the session snapshot (the whole-program fingerprint pass
// and the retention of the previous run's analyses), and Reanalyze
// degrades to a full Infer. For callers that run many unrelated
// programs through one engine purely for the shared memos — the
// evaluation suite is one — and never re-analyze an edited program.
// Call before the first Infer; not synchronized with concurrent runs.
func (e *Engine) DisableSessionRecording() {
	e.noSessions = true
	e.mu.Lock()
	e.sess = nil
	e.mu.Unlock()
}

// session is the recorded outcome of the engine's most recent run: the
// inputs that parameterized it and, per procedure, everything a clean
// replay needs. Sessions are immutable once published. Every field must
// reach the persisted wire form (SaveSessionTo) — a session loaded in a
// fresh process must replay exactly like the one that was saved.
//
//retypd:cachekey Engine.SaveSessionTo
type session struct {
	latSig string
	// sumsDig is the content digest of the run's summaries table
	// (sumsDigest): sessions loaded from disk carry only the digest,
	// never the table, so compatibility is always a digest compare.
	sumsDig string
	opts    Options
	procs   map[string]*procSnap
	// sccKey maps each procedure to a canonical rendering of its SCC's
	// member set; a membership change invalidates the whole SCC even
	// when a member's own body did not change (its scheme was
	// simplified relative to the old SCC union).
	sccKey map[string]string
	// legacyRaw is the option bit of a loaded file whose writer stored
	// raw constraint sets; kept only so SaveSessionTo re-encodes such a
	// file byte for byte (see session.go).
	legacyRaw bool
}

// procSnap is one procedure's session snapshot.
//
//retypd:cachekey Engine.SaveSessionTo
type procSnap struct {
	// fp is the portable body fingerprint (named callee identities), the
	// dirtiness oracle: equal fingerprints plus clean transitive callees
	// imply byte-identical pipeline output for the procedure.
	fp *bodyfp.FP
	// info carries the per-procedure CFG analyses for rebasing onto the
	// next program (cfg.ProcInfo.CloneForProgram). Deliberately absent
	// from the session wire form: ProcInfo holds program-relative state
	// that is cheap to recompute and must never reach a persisted key
	// (docs/ARCHITECTURE.md invariant) — the first Reanalyze after a
	// load rebuilds it from the new program's CFG.
	//retypd:notkey program-relative CFG state, rebuilt on load by the first Reanalyze
	info   *cfg.ProcInfo
	scheme *constraints.Scheme
	// pr is the full phase-2/3 result; its Sketch is sealed at record
	// time so replays can share it across runs and goroutines.
	pr *ProcResult
	// obs are the callsite-actual observations the procedure
	// contributed to phase 3, replayed verbatim for clean procedures.
	obs []actualObs
	// raw is a legacy raw constraint set decoded from an older session
	// file, kept only so SaveSessionTo re-encodes it; no run reads it,
	// and snapshots a run records never carry one.
	raw *constraints.Set
}

// sessionConfig derives the body-fingerprint configuration of a run.
// Only named callee identities are used, so session fingerprints are
// portable and independent of any per-run class numbering.
func sessionConfig(lat *lattice.Lattice, opts Options) bodyfp.Config {
	return bodyfp.Config{
		MonomorphicCalls:      opts.Absint.MonomorphicCalls,
		PolymorphicExternals:  opts.Absint.PolymorphicExternals,
		NoConstantSuppression: opts.Absint.NoConstantSuppression,
		LatticeSig:            lat.Signature(),
	}
}

// namedCallee is the CalleeID source of session fingerprints: every
// target is identified by its exact name. Unlike the in-run dedup
// layer there is no eligibility filtering — session fingerprints cover
// every procedure, including self-recursive ones and reserved names.
func namedCallee(target string) (bodyfp.CalleeID, bool) {
	return bodyfp.CalleeID{Kind: bodyfp.CalleeNamed, Name: target}, true
}

// sessionable reports whether a run's options admit session recording.
// Covered (trace-restricted generation) is a function and cannot be
// compared across runs, so such runs are never recorded.
func sessionable(opts Options) bool { return opts.Absint.Covered == nil }

// optsCompatible reports whether two runs' options produce comparable
// sessions (worker count and cache knobs never change output, so they
// are ignored).
func optsCompatible(a, b Options) bool {
	return a.Absint.MonomorphicCalls == b.Absint.MonomorphicCalls &&
		a.Absint.PolymorphicExternals == b.Absint.PolymorphicExternals &&
		a.Absint.NoConstantSuppression == b.Absint.NoConstantSuppression &&
		a.Absint.Covered == nil && b.Absint.Covered == nil &&
		a.MaxSketchDepth == b.MaxSketchDepth &&
		a.NoSpecialize == b.NoSpecialize
}

// Infer runs the full pipeline with the engine's memo stack and records
// the run as the engine's current session. It cannot be cancelled; a
// contained task panic (*AnalysisError) or an admission rejection
// (*LimitError) is re-raised. Services use InferContext.
func (e *Engine) Infer(prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) *Result {
	res, err := e.InferContext(context.Background(), prog, lat, sums, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// InferContext is Infer under a context: cancellation and deadlines are
// observed cooperatively at task boundaries (an already-cancelled ctx
// returns before any worker spawns), task panics come back as
// structured *AnalysisError, and oversized inputs as *LimitError. On
// any error the engine publishes nothing — no session is recorded, the
// shared caches hold only completed computes — so the engine stays
// usable and its next run is byte-identical to one on a never-faulted
// engine.
func (e *Engine) InferContext(ctx context.Context, prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) (res *Result, err error) {
	// Backstop containment: the pipeline converts task panics itself;
	// anything that still unwinds to here (a fault in pre-pipeline
	// analysis or in session recording) must not crash the process the
	// engine serves.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &AnalysisError{SCC: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	if sums == nil {
		sums = summaries.Default()
	}
	opts.ctx = ctx
	res, art, err := e.infer(prog, lat, sums, opts, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	e.record(lat, sums, "", opts, res, art, nil, nil)
	return res, nil
}

// Reanalyze infers prog incrementally against the engine's previous
// session: procedures whose portable body fingerprints are unchanged —
// and whose transitive callees are all unchanged, and whose SCC
// membership did not move — are replayed from the session verbatim;
// only dirty SCCs and their condensed-call-graph ancestors run the
// pipeline. The result is byte-identical to a from-scratch Infer of
// prog (a golden guarantee the tests enforce on the corpus); the run
// becomes the engine's new session. Without a compatible previous
// session this degrades to a full (recorded) run.
func (e *Engine) Reanalyze(prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) *Result {
	res, err := e.ReanalyzeContext(context.Background(), prog, lat, sums, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// ReanalyzeContext is Reanalyze under a context, with the same error
// and no-partial-state contract as InferContext: on cancellation, task
// panic, or admission rejection the previous session stays current and
// nothing of the aborted run is published.
func (e *Engine) ReanalyzeContext(ctx context.Context, prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &AnalysisError{SCC: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	if sums == nil {
		sums = summaries.Default()
	}
	e.mu.Lock()
	sess := e.sess
	e.mu.Unlock()
	if sess == nil || !sessionable(opts) ||
		sess.latSig != lat.Signature() || !optsCompatible(sess.opts, opts) ||
		sess.sumsDig != sumsDigest(sums) {
		return e.InferContext(ctx, prog, lat, sums, opts)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := admit(prog, opts); err != nil {
		return nil, err
	}
	opts.ctx = ctx

	// Rebuild the program analyses and portable body fingerprints in
	// parallel. An unchanged procedure body is rebased onto the new
	// program instead of re-running its per-procedure analyses, and keeps
	// its snapshot's fingerprint: a fingerprint is a function of the body
	// and the session configuration, which the compatibility check above
	// proved unchanged. (A session loaded from disk carries no analyses,
	// so its first Reanalyze re-analyzes everything.) The
	// interprocedural HasOut fixpoint always re-runs. Byte-identical
	// bodies share one analysis and one fingerprint: both are pure
	// functions of the instruction stream, so one representative per
	// group is analyzed and the rest clone — the same economy the
	// body-dedup layer gives a cold run (dedup.go), without which
	// warm-path CFG analysis would dominate Reanalyze on duplicate-heavy
	// programs.
	workers := conc.Limit(opts.Workers)
	conf := sessionConfig(lat, opts)
	order := prog.Procs
	n := len(order)
	infoList := make([]*cfg.ProcInfo, n)
	fps := make([]*bodyfp.FP, n)
	rep := make([]int, n)
	sameHash := make([]int, n) // previous group representative with the same hash, or -1
	firstOfHash := make(map[uint64]int, n)
	for i, p := range order {
		rep[i], sameHash[i] = i, -1
		h := bodyHashOf(p)
		j, ok := firstOfHash[h]
		for ; ok && j >= 0; j = sameHash[j] {
			if order[j].EqualBody(p) {
				rep[i] = j
				break
			}
		}
		if rep[i] == i {
			if ok {
				sameHash[i] = firstOfHash[h]
			}
			firstOfHash[h] = i
		}
	}

	// Seed dirtiness, per procedure: a new or changed body, or a call
	// whose target flipped between program procedure and external (the
	// fingerprint encodes only the name, but generation models the two
	// differently). SCC membership changes are added below.
	dirty := make([]bool, n)
	seed := func(i int, snap *procSnap) {
		if snap == nil || !snap.fp.EquivalentTo(fps[i]) {
			dirty[i] = true
			return
		}
		for _, c := range fps[i].Calls() {
			_, isNew := prog.ProcIndex[c.Target]
			if _, isOld := sess.procs[c.Target]; isNew != isOld {
				dirty[i] = true
				return
			}
		}
	}

	// Both stages run under the same containment as the pipeline's
	// tasks, so a fault names its phase (and procedure). The call graph
	// needs only the program, so it is built alongside the per-procedure
	// analyses.
	g := newGuard(ctx, opts.SchedHooks)
	defer g.cancelRun()
	var cg *cfg.CallGraph
	cgDone := make(chan struct{})
	go func() {
		defer close(cgDone)
		g.runGuarded("callgraph", -1, "", func() { cg = cfg.BuildCallGraph(prog) })
	}()
	err = conc.ForEachCtx(g.ctx, workers, n, func(i int) {
		if rep[i] != i {
			return
		}
		p := order[i]
		g.runGuarded("cfg", -1, p.Name, func() {
			snap := sess.procs[p.Name]
			if snap != nil && snap.info != nil && snap.info.Proc.EqualBody(p) {
				infoList[i] = snap.info.CloneForProgram(prog, p)
				fps[i] = snap.fp
			} else {
				infoList[i] = cfg.Analyze(prog, p)
				fps[i] = bodyfp.ComputeWithLiveMask(p, conf, namedCallee, infoList[i].EntryLive)
			}
			seed(i, snap)
		})
	})
	<-cgDone
	if err = g.finish(err); err != nil {
		return nil, err
	}
	infos := make(map[string]*cfg.ProcInfo, n)
	fpOf := make(map[string]*bodyfp.FP, n)
	for i, p := range order {
		if r := rep[i]; r != i {
			infoList[i] = infoList[r].CloneForProgram(prog, p)
			fps[i] = fps[r]
			seed(i, sess.procs[p.Name])
		}
		infos[p.Name] = infoList[i]
		fpOf[p.Name] = fps[i]
	}
	cfg.FinishHasOut(infos)

	// A changed SCC membership dirties the procedure too. When no
	// membership changed, the next session shares this one's SCC keys.
	dirtyOf := make(map[string]bool, n)
	anyDirty := false
	sccSame := len(sess.sccKey) == n
	for i, p := range order {
		if !sccKeyIs(sess.sccKey[p.Name], cg.SCCs[cg.SCCOf[p.Name]]) {
			dirty[i], sccSame = true, false
		}
		dirtyOf[p.Name] = dirty[i]
		anyDirty = anyDirty || dirty[i]
	}
	sccKey := sess.sccKey
	if !sccSame {
		sccKey = sccKeys(cg)
	}

	// Propagate to ancestors over the condensed call graph: schemes flow
	// callee→caller, so every SCC that can reach a dirty SCC must
	// recompute. cg.SCCs is bottom-up (every call edge from SCC i lands
	// in some SCC j < i), so one forward pass suffices. With nothing
	// dirty there is nothing to propagate.
	if anyDirty {
		sccDirty := make([]bool, len(cg.SCCs))
		for i, scc := range cg.SCCs {
			d := false
			for _, p := range scc {
				if dirtyOf[p] {
					d = true
					break
				}
			}
			if !d {
			outer:
				for _, p := range scc {
					for _, callee := range cg.Callees[p] {
						if j, ok := cg.SCCOf[callee]; ok && j != i && sccDirty[j] {
							d = true
							break outer
						}
					}
				}
			}
			sccDirty[i] = d
			if d {
				for _, p := range scc {
					dirtyOf[p] = true
				}
			}
		}
	}

	res, art, err := e.infer(prog, lat, sums, opts, infos, cg, &incrementalPlan{dirty: dirtyOf, snaps: sess.procs})
	if err != nil {
		return nil, err
	}
	// The compatibility check above established that sums digests to
	// the previous session's value.
	e.record(lat, sums, sess.sumsDig, opts, res, art, fpOf, sccKey)
	return res, nil
}

// sccKeyIs reports whether key is the sccKeys rendering of scc,
// without building it.
func sccKeyIs(key string, scc []string) bool {
	for _, p := range scc {
		if len(key) <= len(p) || key[:len(p)] != p || key[len(p)] != 0 {
			return false
		}
		key = key[len(p)+1:]
	}
	return key == ""
}

// sccKeys renders each procedure's SCC membership canonically (members
// are already in deterministic slice order).
func sccKeys(cg *cfg.CallGraph) map[string]string {
	out := make(map[string]string, len(cg.SCCs))
	for _, scc := range cg.SCCs {
		key := strings.Join(scc, "\x00") + "\x00"
		for _, p := range scc {
			out[p] = key
		}
	}
	return out
}

// replayed reports whether procedure p is clean in an incremental run:
// its results replay from the session instead of running F.1/F.2.
func (pl *pipeline) replayed(p string) bool {
	return pl.inc != nil && !pl.inc.dirty[p]
}

// replayClean replays every clean procedure of an incremental run
// before the readiness graph starts. A clean procedure's callees are
// all clean, so its replay waits on nothing this run computes, and the
// graph schedules the dirty SCCs alone. Each replay runs under the
// run's containment as phase "F.2", like the task it replaces.
func (pl *pipeline) replayClean() error {
	var clean []int
	for pi, p := range pl.order {
		if pl.replayed(p) {
			clean = append(clean, pi)
		}
	}
	return conc.ForEachCtx(pl.ctx, pl.workers, len(clean), func(k int) {
		pi := clean[k]
		p := pl.order[pi]
		pl.runGuarded("F.2", -1, p, func() { pl.prs[pi], pl.obs[pi] = pl.replayProc(p) })
	})
}

// replayProc rebuilds a clean procedure's result from its session
// snapshot: a fresh shell (phase 3 fills SpecializedIns per run)
// sharing the immutable pieces — the scheme and the sealed sketch —
// plus the recorded callsite observations.
func (pl *pipeline) replayProc(p string) (*ProcResult, []actualObs) {
	snap := pl.inc.snaps[p]
	pi := pl.infos[p]
	pr := &ProcResult{
		Name:           p,
		FormalIns:      pi.FormalIns,
		HasOut:         pi.HasOut,
		Scheme:         snap.scheme,
		Sketch:         snap.pr.Sketch,
		SpecializedIns: map[string]*sketch.Sketch{},
	}
	return pr, snap.obs
}

// bodyHashSeed keys the in-memory body-grouping hash of Reanalyze. The
// hash never leaves the process (candidates are confirmed with
// EqualBody), so the per-process seed is fine.
var bodyHashSeed = maphash.MakeSeed()

// bodyHashOf hashes a procedure's raw instruction stream for exact
// body grouping. Collisions are harmless (EqualBody arbitrates);
// labels need not be folded in for the same reason. Fixed-width fields
// are packed into words and mixed inline; only call targets go through
// maphash.
func bodyHashOf(p *asm.Proc) uint64 {
	mix := func(h, w uint64) uint64 {
		h ^= w
		h *= 0x9e3779b97f4a7c15
		return h ^ h>>29
	}
	h := uint64(len(p.Insts))
	for _, in := range p.Insts {
		h = mix(h, uint64(in.Op)|uint64(in.Dst.Kind)<<8|uint64(in.Dst.Reg)<<16|
			uint64(in.Src.Kind)<<24|uint64(in.Src.Reg)<<32)
		h = mix(h, uint64(uint32(in.Dst.Imm))|uint64(uint32(in.Src.Imm))<<32)
		if in.Target != "" {
			h = mix(h, maphash.String(bodyHashSeed, in.Target))
		}
	}
	return h
}

// record publishes a run as the engine's session. fpOf and sumsDig
// carry the session fingerprints and the digest of sums, and sccKey the
// SCC keys of art.cg, when the caller already computed them
// (Reanalyze); otherwise (nil, "", nil) they are computed here. Runs whose options cannot be compared across calls
// (trace-restricted generation) are not recorded.
func (e *Engine) record(lat *lattice.Lattice, sums summaries.Table, sumsDig string, opts Options, res *Result, art *runArtifacts, fpOf map[string]*bodyfp.FP, sccKey map[string]string) {
	if e.noSessions || !sessionable(opts) {
		return
	}
	// Sessions outlive the run; never retain its cancellation context.
	opts.ctx = nil
	conf := sessionConfig(lat, opts)
	if fpOf == nil {
		fps := make([]*bodyfp.FP, len(art.order))
		workers := conc.Limit(opts.Workers)
		conc.ForEach(workers, len(art.order), func(i int) {
			fps[i] = bodyfp.Compute(res.Prog.ProcIndex[art.order[i]], conf, namedCallee)
		})
		fpOf = make(map[string]*bodyfp.FP, len(art.order))
		for i, p := range art.order {
			fpOf[p] = fps[i]
		}
	}
	if sumsDig == "" {
		sumsDig = sumsDigest(sums)
	}
	if sccKey == nil {
		sccKey = sccKeys(art.cg)
	}
	sess := &session{
		latSig:  lat.Signature(),
		sumsDig: sumsDig,
		opts:    opts,
		procs:   make(map[string]*procSnap, len(art.order)),
		sccKey:  sccKey,
	}
	for i, p := range art.order {
		pr := art.prs[i]
		// Seal everything a future run will share: the procedure sketch
		// and the observation sketches. Sealing is idempotent and
		// read-transparent — derived views copy instead of mutating.
		if pr.Sketch != nil {
			pr.Sketch.Seal()
		}
		for _, o := range art.obs[i] {
			if o.sk != nil {
				o.sk.Seal()
			}
		}
		sess.procs[p] = &procSnap{
			fp:     fpOf[p],
			info:   res.Infos[p],
			scheme: pr.Scheme,
			pr:     pr,
			obs:    art.obs[i],
		}
	}
	e.mu.Lock()
	e.sess = sess
	e.mu.Unlock()
}
