package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"retypd/internal/asm"
	"retypd/internal/cfg"
	"retypd/internal/corpus"
	"retypd/internal/metrics"
	"retypd/internal/solver"
)

// Workload sizes. Each run replays its stream in whole cycles until the
// measured time is spent, so these fix the mix a run measures; the run
// length only sets how many cycles it averages over.
const (
	// coldPrograms is the number of distinct programs in one cold-batch
	// cycle, sized evenly from coldMinInsts to coldMaxInsts so every seed
	// measures the same size mix.
	coldPrograms = 48
	coldMinInsts = 2000
	coldMaxInsts = 8000
	// fleetWarm binaries warm the cache file the fleet engine loads;
	// fleetStream further binaries of the same fleet are then served by
	// one engine, whose body-class table grows with every one of them.
	fleetWarm   = 8
	fleetStream = 40
	fleetInsts  = 4000
	fleetShared = 0.5
	// editInsts sizes the edited program; editTargets procedures are
	// edited, half drawn uniformly and half from the leaves with the
	// widest transitive-caller cones.
	editInsts   = 8000
	editTargets = 24
)

// workload is one named, seeded op stream plus the engine set-up that
// serves it.
type workload struct {
	name string
	// mix describes the loop and the inputs for the report.
	mix string
	// stream is one cycle of ops, in order.
	stream []*input
	// epoch is the number of consecutive ops one engine serves: 1 gives
	// every op a fresh engine; len(stream) keeps one engine per cycle.
	epoch     int
	reanalyze bool
	// setup builds the engine an epoch runs on; it is the timed set-up.
	setup func() (*solver.Engine, error)
	// prior lists the programs the engine's persisted state was built
	// from, which count as "earlier programs" for the body-class shares.
	prior []*input
	// probe holds an engine with a recorded session of probeSrc, for
	// the traced run's persistence and session probes.
	probe    *solver.Engine
	probeSrc string
}

// workloadNames lists the workloads in the order BENCHMARK.json names
// them.
var workloadNames = []string{"cold-batch", "fleet-serve", "edit-reanalyze"}

// buildWorkload generates the seeded inputs of workload name and runs
// its untimed warm-up, writing any persisted state under dir.
func buildWorkload(name string, seed int64, dir string) (*workload, error) {
	switch name {
	case "cold-batch":
		return coldBatch(seed)
	case "fleet-serve":
		return fleetServe(seed, dir)
	case "edit-reanalyze":
		return editReanalyze(seed, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func fromBench(b *corpus.Benchmark) *input {
	return &input{name: b.Name, src: b.Source, insts: b.Insts, truth: b}
}

// sessionlessEngine is a fresh engine with session recording off.
func sessionlessEngine() (*solver.Engine, error) {
	e := solver.NewEngine(0, 0)
	e.DisableSessionRecording()
	return e, nil
}

// warmEngine infers every input on a fresh recording engine; the last
// one becomes its session.
func warmEngine(ins []*input) (*solver.Engine, error) {
	e := solver.NewEngine(0, 0)
	for _, in := range ins {
		if _, err := runOp(bgctx, e, in.src, false, solver.DefaultOptions()); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", in.name, err)
		}
	}
	return e, nil
}

func coldBatch(seed int64) (*workload, error) {
	r := rand.New(rand.NewSource(seed))
	w := &workload{
		name: "cold-batch",
		mix: fmt.Sprintf("closed loop, 1 client, workers=nproc; %d distinct corpus.Generate programs of %d-%d insts per cycle; fresh session-less engine per op",
			coldPrograms, coldMinInsts, coldMaxInsts),
		epoch: 1,
		setup: sessionlessEngine,
	}
	for i, k := range r.Perm(coldPrograms) {
		size := coldMinInsts + k*(coldMaxInsts-coldMinInsts)/(coldPrograms-1)
		w.stream = append(w.stream, fromBench(corpus.Generate(fmt.Sprintf("cold-%d", i), r.Int63(), size)))
	}
	return w, nil
}

func fleetServe(seed int64, dir string) (*workload, error) {
	fleet := corpus.GenerateFleet(fmt.Sprintf("fleet%d", seed), seed, fleetInsts, fleetWarm+fleetStream, fleetShared)
	w := &workload{
		name: "fleet-serve",
		mix: fmt.Sprintf("closed loop, 1 client, workers=nproc; one session-less engine per cycle, loaded from a cache of %d fleet binaries, serves %d more (%d insts, shared %.1f)",
			fleetWarm, fleetStream, fleetInsts, fleetShared),
		epoch: fleetStream,
	}
	for i, b := range fleet {
		if i < fleetWarm {
			w.prior = append(w.prior, fromBench(b))
		} else {
			w.stream = append(w.stream, fromBench(b))
		}
	}
	warm, err := warmEngine(w.prior)
	if err != nil {
		return nil, err
	}
	cachePath := filepath.Join(dir, "fleet.cache")
	if err := warm.SaveCache(cachePath); err != nil {
		return nil, err
	}
	w.probe, w.probeSrc = warm, w.prior[len(w.prior)-1].src
	w.setup = func() (*solver.Engine, error) {
		e, _, err := solver.LoadCache(cachePath, 0, 0)
		if err != nil {
			return nil, err
		}
		e.DisableSessionRecording()
		return e, nil
	}
	return w, nil
}

func editReanalyze(seed int64, dir string) (*workload, error) {
	r := rand.New(rand.NewSource(seed))
	base := fromBench(corpus.Generate("edit", r.Int63(), editInsts))
	prog, err := asm.Parse(base.src)
	if err != nil {
		return nil, err
	}
	targets := editTargetsOf(prog, r)
	variants := make([]*input, len(targets))
	for i, t := range targets {
		variants[i] = editProc(base, prog.ProcIndex[t], r)
	}
	w := &workload{
		name: "edit-reanalyze",
		mix: fmt.Sprintf("closed loop, 1 client, workers=nproc; one engine per cycle restored by LoadSession+LoadCacheFile of a %d-inst program; %d single-procedure edits, each followed by its undo, run through Reanalyze",
			editInsts, len(targets)),
		reanalyze: true,
		prior:     []*input{base},
	}
	for _, v := range variants {
		w.stream = append(w.stream, v, base)
	}
	w.epoch = len(w.stream)

	warm, err := warmEngine(w.prior)
	if err != nil {
		return nil, err
	}
	sessPath, cachePath := filepath.Join(dir, "edit.session"), filepath.Join(dir, "edit.cache")
	if err := warm.SaveSession(sessPath); err != nil {
		return nil, err
	}
	if err := warm.SaveCache(cachePath); err != nil {
		return nil, err
	}
	w.probe, w.probeSrc = warm, base.src
	w.setup = func() (*solver.Engine, error) {
		e, _, err := solver.LoadSession(sessPath, 0, 0)
		if err != nil {
			return nil, err
		}
		data, err := os.ReadFile(cachePath)
		if err != nil {
			return nil, err
		}
		if _, err := e.LoadCacheData(data); err != nil {
			return nil, err
		}
		return e, nil
	}
	return w, nil
}

// editTargetsOf draws the edited procedures: half uniformly over all
// procedures, half from the leaves whose transitive-caller cones are
// the widest (a leaf edit recomputes its whole cone).
func editTargetsOf(prog *asm.Program, r *rand.Rand) []string {
	cg := cfg.BuildCallGraph(prog)
	callers := map[string][]string{}
	for _, p := range prog.Procs {
		for _, c := range cg.Callees[p.Name] {
			callers[c] = append(callers[c], p.Name)
		}
	}
	cone := func(p string) int {
		seen := map[string]bool{p: true}
		work := []string{p}
		for len(work) > 0 {
			q := work[len(work)-1]
			work = work[:len(work)-1]
			for _, c := range callers[q] {
				if !seen[c] {
					seen[c] = true
					work = append(work, c)
				}
			}
		}
		return len(seen) - 1
	}
	type leaf struct {
		name string
		cone int
	}
	var leaves []leaf
	for _, p := range prog.Procs {
		if len(cg.Callees[p.Name]) == 0 {
			leaves = append(leaves, leaf{p.Name, cone(p.Name)})
		}
	}
	sort.SliceStable(leaves, func(i, j int) bool { return leaves[i].cone > leaves[j].cone })

	chosen := map[string]bool{}
	var out []string
	pick := func(name string) {
		if !chosen[name] {
			chosen[name] = true
			out = append(out, name)
		}
	}
	wide := leaves
	if len(wide) > editTargets {
		wide = wide[:editTargets]
	}
	for _, i := range r.Perm(len(wide)) {
		if len(out) == editTargets/2 {
			break
		}
		pick(wide[i].name)
	}
	for len(out) < editTargets && len(out) < len(prog.Procs) {
		pick(prog.Procs[r.Intn(len(prog.Procs))].Name)
	}
	return out
}

// editProc returns base with one edit to proc: a dead constant load
// into a register that is not live on entry, inserted as the first
// instruction. The procedure's body fingerprint changes, so Reanalyze
// must recompute it and its caller cone, while its interface stays.
func editProc(base *input, proc *asm.Proc, r *rand.Rand) *input {
	live := cfg.EntryLiveRegs(proc)
	line := "    nop\n"
	for _, reg := range []asm.Reg{asm.EDX, asm.ECX, asm.EBX, asm.ESI, asm.EDI} {
		if live&cfg.RegBit(reg) == 0 {
			line = fmt.Sprintf("    mov %s, %d\n", reg, 1+r.Intn(1000))
			break
		}
	}
	head := "proc " + proc.Name + "\n"
	truth := *base.truth
	truth.Truths = nil
	for _, t := range base.truth.Truths {
		if t.Func != proc.Name {
			truth.Truths = append(truth.Truths, t)
		}
	}
	return &input{
		name:  "edit:" + proc.Name,
		src:   strings.Replace(base.src, head, head+line, 1),
		insts: base.insts + 1,
		truth: &truth,
	}
}

// references computes every distinct stream input's reference digest,
// outside any timed region.
func (w *workload) references() error {
	for _, in := range w.distinct() {
		ref, err := reference(in.src)
		if err != nil {
			return fmt.Errorf("reference %s: %w", in.name, err)
		}
		in.ref = digest(ref)
	}
	return nil
}

// distinct lists the stream's inputs in first-appearance order.
func (w *workload) distinct() []*input {
	seen := map[*input]bool{}
	var out []*input
	for _, in := range w.stream {
		if !seen[in] {
			seen[in] = true
			out = append(out, in)
		}
	}
	return out
}

// scoreFirst scores an input's first op output against ground truth.
func scoreFirst(in *input, out opResult, agg *metrics.Aggregate) {
	if in.scored {
		return
	}
	in.scored = true
	agg.Merge(score(out.res, in.truth))
}
