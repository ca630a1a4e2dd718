package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"retypd/internal/asm"
	"retypd/internal/cfg"
	"retypd/internal/conc"
	"retypd/internal/lattice"
	"retypd/internal/solver"
)

// layerObserver collects the per-layer counters of the traced run's
// pipeline pass: memo-layer stats from each Result, executor task
// counts from the SchedHooks.BeforeTask seam, and GC activity from the
// runtime, read around every op.
type layerObserver struct {
	tasks [4]atomic.Int64

	ops                                   int
	procs, bodyHits, crossHits, replayed  uint64
	schemeHits, schemeN, shapeHits, shape uint64
	gcCPU, allCPU                         float64
	gcCycles, pauseNs                     uint64

	before0 [3]float64
	pause0  uint64
	// outs holds each stream position's output digest, for comparing
	// the replay against the pipeline.
	outs map[int][sha256.Size]byte
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGC() (vals [3]float64, pauseNs uint64) {
	metrics.Read(gcSamples)
	vals[0] = gcSamples[0].Value.Float64()
	vals[1] = gcSamples[1].Value.Float64()
	vals[2] = float64(gcSamples[2].Value.Uint64())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return vals, ms.PauseTotalNs
}

func newLayerObserver() *layerObserver {
	return &layerObserver{outs: map[int][sha256.Size]byte{}}
}

// hooks counts every F.0-F.3 task the pipeline runs.
func (o *layerObserver) hooks() *conc.SchedHooks {
	return &conc.SchedHooks{BeforeTask: func(phase, _ string) {
		if len(phase) == 3 && phase[2] >= '0' && phase[2] <= '3' {
			o.tasks[phase[2]-'0'].Add(1)
		}
	}}
}

func (o *layerObserver) before() { o.before0, o.pause0 = readGC() }

func (o *layerObserver) after(i int, out opResult) {
	now, pause := readGC()
	o.gcCPU += now[0] - o.before0[0]
	o.allCPU += now[1] - o.before0[1]
	o.gcCycles += uint64(now[2] - o.before0[2])
	o.pauseNs += pause - o.pause0
	o.ops++
	r := out.res
	o.procs += uint64(len(r.Procs))
	o.bodyHits += r.BodyDedupHits
	o.crossHits += r.BodyDedupCrossHits
	o.replayed += r.ReplayedProcs
	o.schemeHits += r.SchemeCacheHits
	o.schemeN += r.SchemeCacheHits + r.SchemeCacheMisses
	o.shapeHits += r.ShapeCacheHits
	o.shape += r.ShapeCacheHits + r.ShapeCacheMisses
	o.outs[i] = digest(out)
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traced is the traced run: one cycle of the pipeline with the layer
// observer attached, then a sequential replay of the same ops through
// the layers' public functions until budget is spent, then the
// persistence and session probes. It returns the per-layer metrics.
func traced(w *workload, budget time.Duration, spanDir string) (*tally, []metric, error) {
	obs := newLayerObserver()
	opts := solver.DefaultOptions()
	opts.SchedHooks = obs.hooks()
	t, err := measure(w, opts, 0, 1, obs)
	if err != nil {
		return nil, nil, err
	}

	// Replay the cycle's ops sequentially, each once untraced and once
	// with spans on; the difference is the tracing overhead.
	tr := newTracer()
	var counts []replayCounts
	var overhead []float64
	var replayTime time.Duration
	for i, in := range w.stream {
		if replayTime >= budget {
			break
		}
		start := time.Now()
		_, _, err := replay(in.src, nil)
		plain := time.Since(start)
		tr.op = int32(i)
		root := tr.begin(layOp, in.name)
		start = time.Now()
		out, c, err2 := replay(in.src, tr)
		d := time.Since(start)
		tr.end(root)
		replayTime += plain + d
		t.attempted++
		if err == nil {
			err = err2
		}
		if err != nil {
			t.fail(in, "replay: "+err.Error())
			continue
		}
		if want, ok := obs.outs[i]; !ok || digest(out) != want {
			t.fail(in, "replayed output differs from the pipeline's")
			continue
		}
		counts = append(counts, c)
		overhead = append(overhead, float64((d-plain).Nanoseconds())/1e6)
	}
	if err := tr.write(filepath.Join(spanDir, "spans-"+w.name+".tsv")); err != nil {
		return nil, nil, err
	}

	self := tr.selfTimes()
	layerMs := func(l uint8) float64 {
		var xs []float64
		for _, per := range self {
			xs = append(xs, per[l])
		}
		return median(xs)
	}
	count := func(f func(replayCounts) int) float64 {
		var xs []float64
		for _, c := range counts {
			xs = append(xs, float64(f(c)))
		}
		return median(xs)
	}
	p, err := probe(w)
	if err != nil {
		return nil, nil, err
	}
	inProg, cross, err := bodyShares(w)
	if err != nil {
		return nil, nil, err
	}
	perOp := func(x float64) float64 { return x / float64(max(obs.ops, 1)) }
	ms := []metric{
		{"asm.self_ms", layerMs(layAsm), "ms"},
		{"asm.insts", count(func(c replayCounts) int { return c.insts }), "count"},
		{"cfg.self_ms", layerMs(layCfg), "ms"},
		{"cfg.procs", count(func(c replayCounts) int { return c.procs }), "count"},
		{"cfg.sccs", count(func(c replayCounts) int { return c.sccs }), "count"},
		{"bodyfp.self_ms", layerMs(layBodyfp), "ms"},
		{"absint.self_ms", layerMs(layAbsint), "ms"},
		{"absint.constraints", count(func(c replayCounts) int { return c.constraints }), "count"},
		{"pgraph.self_ms", layerMs(layPgraph), "ms"},
		{"pgraph.nodes", count(func(c replayCounts) int { return c.nodes }), "count"},
		{"pgraph.scheme_constraints", count(func(c replayCounts) int { return c.schemeConstraints }), "count"},
		{"sketch.self_ms", layerMs(laySketch), "ms"},
		{"sketch.states", count(func(c replayCounts) int { return c.states }), "count"},
		{"ctype.self_ms", layerMs(layCtype), "ms"},
		{"solver.body_hit_frac", frac(obs.bodyHits, obs.procs), "fraction"},
		{"solver.cross_hit_frac", frac(obs.crossHits, obs.procs), "fraction"},
		{"solver.scheme_hit_frac", frac(obs.schemeHits, obs.schemeN), "fraction"},
		{"solver.shape_hit_frac", frac(obs.shapeHits, obs.shape), "fraction"},
		{"session.noop_ms", p.noopMs, "ms"},
		{"session.recomputed_frac", 1 - frac(obs.replayed, obs.procs), "fraction"},
		{"persist.cache_load_ms", p.cacheLoadMs, "ms"},
		{"persist.cache_bytes", float64(p.cacheBytes), "bytes"},
		{"persist.session_load_ms", p.sessionLoadMs, "ms"},
		{"persist.session_bytes", float64(p.sessionBytes), "bytes"},
		{"conc.tasks.F0", perOp(float64(obs.tasks[0].Load())), "count"},
		{"conc.tasks.F1", perOp(float64(obs.tasks[1].Load())), "count"},
		{"conc.tasks.F2", perOp(float64(obs.tasks[2].Load())), "count"},
		{"conc.tasks.F3", perOp(float64(obs.tasks[3].Load())), "count"},
		{"gc.cpu_frac", obs.gcCPU / max(obs.allCPU, 1e-12), "fraction"},
		{"gc.cycles", perOp(float64(obs.gcCycles)), "count"},
		{"gc.pause_ms", perOp(float64(obs.pauseNs) / 1e6), "ms"},
		{"input.dup_in_program_frac", inProg, "fraction"},
		{"input.dup_cross_program_frac", cross, "fraction"},
		{"trace.overhead_ms", median(overhead), "ms"},
	}
	return t, ms, nil
}

// probeResult holds the persistence and session probes.
type probeResult struct {
	cacheLoadMs, sessionLoadMs, noopMs float64
	cacheBytes, sessionBytes           int
}

const probeReps = 7

// probe measures decoding the workload's persisted cache and session
// into fresh engines, and a Reanalyze of the program the session
// recorded (which changes nothing, so every procedure replays).
func probe(w *workload) (probeResult, error) {
	var p probeResult
	eng, src := w.probe, w.probeSrc
	if eng == nil {
		var err error
		if eng, err = warmEngine(w.stream[:1]); err != nil {
			return p, err
		}
		src = w.stream[0].src
	}
	var cache, sess bytes.Buffer
	if err := eng.SaveCacheTo(&cache); err != nil {
		return p, err
	}
	if err := eng.SaveSessionTo(&sess); err != nil {
		return p, err
	}
	p.cacheBytes, p.sessionBytes = cache.Len(), sess.Len()
	timeIt := func(f func() error) (float64, error) {
		var xs []float64
		for k := 0; k < probeReps; k++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			xs = append(xs, float64(time.Since(start).Nanoseconds())/1e6)
		}
		return median(xs), nil
	}
	var err error
	if p.cacheLoadMs, err = timeIt(func() error {
		_, err := solver.NewEngine(0, 0).LoadCacheData(cache.Bytes())
		return err
	}); err != nil {
		return p, fmt.Errorf("cache probe: %w", err)
	}
	if p.sessionLoadMs, err = timeIt(func() error {
		_, err := solver.NewEngine(0, 0).LoadSessionData(sess.Bytes())
		return err
	}); err != nil {
		return p, fmt.Errorf("session probe: %w", err)
	}
	prog, err := asm.Parse(src)
	if err != nil {
		return p, err
	}
	if p.noopMs, err = timeIt(func() error {
		_, err := eng.ReanalyzeContext(bgctx, prog, lattice.Default(), nil, solver.DefaultOptions())
		return err
	}); err != nil {
		return p, fmt.Errorf("session no-op probe: %w", err)
	}
	return p, nil
}

// bodyShares reports the property the body-class memo layers depend on,
// over the stream's distinct programs: the fraction of procedures whose
// body class was already seen earlier in the same program, and the
// fraction seen in an earlier program (the workload's prior programs
// first, then the stream in order).
func bodyShares(w *workload) (inProgram, earlier float64, err error) {
	ct := newClassTable()
	progs := append(append([]*input(nil), w.prior...), w.distinct()...)
	var in, cross, procs int
	for k, p := range progs {
		prog, err := asm.Parse(p.src)
		if err != nil {
			return 0, 0, err
		}
		a, b := ct.classify(cfg.BuildCallGraph(prog), k, nil)
		if k >= len(w.prior) {
			in += a
			cross += b
			procs += len(prog.Procs)
		}
	}
	return float64(in) / float64(procs), float64(cross) / float64(procs), nil
}
