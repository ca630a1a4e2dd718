package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"retypd/internal/constraints"
	"retypd/internal/corpus"
	"retypd/internal/solver"
)

// smallWorkload is a two-program cold-batch stream, small enough for
// tests.
func smallWorkload(t *testing.T) *workload {
	t.Helper()
	w := &workload{
		name:  "small",
		epoch: 1,
		setup: sessionlessEngine,
		stream: []*input{
			fromBench(corpus.Generate("small-0", 1, 400)),
			fromBench(corpus.Generate("small-1", 2, 400)),
		},
	}
	if err := w.references(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCorruptedOutputCountsAsFailed checks the output check: a correct
// op passes, while an op whose scheme, specialized sketch or signature
// text differs from the reference, or which returned an error, counts
// as failed.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	w := smallWorkload(t)
	in := w.stream[0]
	run := func() opResult {
		eng, _ := sessionlessEngine()
		out, err := runOp(bgctx, eng, in.src, false, solver.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var tl tally
	if !tl.check(in, run(), nil) {
		t.Fatalf("correct output counted as failed: %s", tl.firstFailure)
	}

	corruptions := map[string]func(out *opResult){
		"scheme": func(out *opResult) {
			for _, pr := range out.res.Procs {
				if pr.Scheme.Constraints.Len() > 0 {
					pr.Scheme = &constraints.Scheme{Root: pr.Scheme.Root, Constraints: constraints.NewSet()}
					return
				}
			}
			t.Fatal("no scheme to corrupt")
		},
		"specialized sketch": func(out *opResult) {
			for _, pr := range out.res.Procs {
				for loc := range pr.SpecializedIns {
					delete(pr.SpecializedIns, loc)
					return
				}
			}
			t.Fatal("no specialized sketch to corrupt")
		},
		"signature": func(out *opResult) { out.sigs = out.sigs[1:] },
	}
	for name, corrupt := range corruptions {
		out := run()
		corrupt(&out)
		before := tl.failed
		if tl.check(in, out, nil) || tl.failed != before+1 {
			t.Errorf("corrupted %s was not counted as failed", name)
		}
	}
	if tl.check(in, opResult{}, os.ErrDeadlineExceeded) {
		t.Error("an op error was not counted as failed")
	}
	if tl.attempted != 5 || tl.failed != 4 {
		t.Errorf("attempted %d failed %d, want 5 and 4", tl.attempted, tl.failed)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestRunsMatchBenchmarkJSON runs both kinds of run on a small stream:
// every op and every replay must pass its check, and each run must
// report exactly the metrics, with the units, BENCHMARK.json names.
func TestRunsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, wl.Name, workloadNames[i])
		}
	}
	same := func(kind string, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, got []metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the run reports %d", kind, len(want), len(got))
			return
		}
		for i := range want {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], run %s [%s]", kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}

	w := smallWorkload(t)
	tl, err := measure(w, solver.DefaultOptions(), 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("pipeline op failed: %s", tl.firstFailure)
	}
	same("end_to_end", spec.EndToEnd, endToEnd(tl))

	tl, ms, err := traced(smallWorkload(t), time.Minute, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted != 4 {
		t.Fatalf("traced run: attempted %d, failed %d: %s", tl.attempted, tl.failed, tl.firstFailure)
	}
	same("per_layer", spec.PerLayer, ms)
}

// TestEditStream checks the edit-reanalyze stream's shape: distinct
// targets, each a one-instruction edit of the base program followed by
// its undo.
func TestEditStream(t *testing.T) {
	w, err := buildWorkload("edit-reanalyze", 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := w.prior[0]
	seen := map[string]bool{}
	for i := 0; i < len(w.stream); i += 2 {
		v := w.stream[i]
		if seen[v.name] || v.src == base.src || v.insts != base.insts+1 {
			t.Fatalf("%s: not a distinct one-instruction edit", v.name)
		}
		seen[v.name] = true
		if w.stream[i+1] != base {
			t.Fatalf("op %d is not the undo of %s", i+1, v.name)
		}
	}
	if len(seen) != editTargets {
		t.Errorf("%d edits, want %d", len(seen), editTargets)
	}
}
