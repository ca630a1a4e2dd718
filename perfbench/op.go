package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"retypd/internal/asm"
	"retypd/internal/baselines"
	"retypd/internal/cfg"
	"retypd/internal/corpus"
	"retypd/internal/ctype"
	"retypd/internal/eval"
	"retypd/internal/lattice"
	"retypd/internal/metrics"
	"retypd/internal/sketch"
	"retypd/internal/solver"
)

// input is one op's program as the generator produced it. The program
// under test sees only src; truth stays on the benchmark's side.
type input struct {
	name  string
	src   string
	insts int
	// truth carries the generator's ground truth for the variables the
	// op's output is scored on.
	truth *corpus.Benchmark
	// ref is the digest of the plain reference's rendered output.
	ref [sha256.Size]byte
	// scored is set once the input's first op output has been scored.
	scored bool
}

// referenceOptions is the plain reference: one worker and every memo
// layer off.
func referenceOptions() solver.Options {
	o := solver.DefaultOptions()
	o.Workers = 1
	o.NoSchemeCache = true
	o.NoShapeCache = true
	o.NoBodyDedup = true
	return o
}

// opResult is what one op hands back: the solver result and the
// rendered signatures (the op's user-visible output).
type opResult struct {
	res  *solver.Result
	sigs string
}

// runOp is one op: source text in, asm parse, solver Infer or
// Reanalyze on eng, and ctype rendering of every signature out. A
// panic escaping the engine is returned as an error, so it counts as a
// failed op instead of ending the run.
func runOp(ctx context.Context, eng *solver.Engine, src string, reanalyze bool, opts solver.Options) (out opResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	prog, err := asm.Parse(src)
	if err != nil {
		return out, err
	}
	lat := lattice.Default()
	if reanalyze {
		out.res, err = eng.ReanalyzeContext(ctx, prog, lat, nil, opts)
	} else {
		out.res, err = eng.InferContext(ctx, prog, lat, nil, opts)
	}
	if err != nil {
		return out, err
	}
	out.sigs = renderSignatures(out.res)
	return out, nil
}

// renderSignatures renders every procedure's C signature, in name
// order, followed by the struct typedefs the rendering created — the
// same display policy as retypd.Result.Signature and Typedefs.
func renderSignatures(res *solver.Result) string {
	conv := ctype.NewConverter(res.Lat)
	var b strings.Builder
	for _, name := range sortedProcs(res) {
		b.WriteString(signature(res.Procs[name], conv).String())
		b.WriteByte('\n')
	}
	for _, t := range conv.Structs {
		fmt.Fprintf(&b, "%s;\n", t)
	}
	return b.String()
}

func signature(p *solver.ProcResult, conv *ctype.Converter) *ctype.Signature {
	sig := &ctype.Signature{Name: p.Name, Ret: ctype.Prim("void")}
	for _, l := range p.FormalIns {
		loc := l.ParamName()
		t := ctype.Unknown()
		if sk, ok := p.InSketch(loc); ok {
			t = conv.ConvertParam(sk)
		}
		sig.Params = append(sig.Params, ctype.Param{Loc: loc, Type: t})
	}
	if p.HasOut {
		sig.Ret = ctype.Unknown()
		if sk, ok := p.OutSketch(); ok {
			sig.Ret = conv.FromSketch(sk)
		}
	}
	return sig
}

func sortedProcs(res *solver.Result) []string {
	names := make([]string, 0, len(res.Procs))
	for n := range res.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// digest hashes the full output an op is checked on: every scheme,
// every specialized parameter sketch, and every signature.
func digest(out opResult) [sha256.Size]byte {
	return sha256.Sum256([]byte(out.res.DumpSchemes() + out.res.DumpSpecialized() + out.sigs))
}

// reference computes the plain reference output of src: a fresh
// one-shot Infer under referenceOptions.
func reference(src string) (opResult, error) {
	prog, err := asm.Parse(src)
	if err != nil {
		return opResult{}, err
	}
	res, err := solver.InferContext(context.Background(), prog, lattice.Default(), nil, referenceOptions())
	if err != nil {
		return opResult{}, err
	}
	return opResult{res: res, sigs: renderSignatures(res)}, nil
}

// score rates an op's result against the generator's ground truth with
// the evaluation harness's per-variable scorer (Figures 8 and 9).
func score(res *solver.Result, truth *corpus.Benchmark) metrics.Aggregate {
	o := &baselines.Outcome{
		Lat:     res.Lat,
		Formals: map[string][]cfg.Loc{},
		HasOut:  map[string]bool{},
	}
	for name, pi := range res.Infos {
		o.Formals[name] = pi.FormalIns
		o.HasOut[name] = pi.HasOut
	}
	o.ParamSk = func(proc, loc string) *sketch.Sketch {
		if pr, ok := res.Procs[proc]; ok {
			if sk, ok := pr.InSketch(loc); ok {
				return sk
			}
		}
		return nil
	}
	o.OutSk = func(proc string) *sketch.Sketch {
		if pr, ok := res.Procs[proc]; ok {
			if sk, ok := pr.OutSketch(); ok {
				return sk
			}
		}
		return nil
	}
	return eval.ScoreOutcome(o, truth)
}
