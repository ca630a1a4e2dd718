// Command perfbench is the repository benchmark. It runs one seeded,
// closed-loop workload with one client against the solver engine, checks
// every op's output against a plain reference, scores precision against
// the generator's ground truth, and prints every metric by name with its
// unit. The last line of standard output is one JSON object: end-to-end
// metrics with -trace 0, the per-layer metrics of a traced run with
// -trace 1.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cold-batch --seed 1 --seconds 10 --trace 0
//
// One op is source text in, asm parse, solver Infer or Reanalyze with
// the default worker count, and ctype rendering of every signature out.
// The workloads stress different layers:
//
//   - cold-batch: distinct programs, a fresh session-less engine per op.
//     Every compute layer runs; only in-program memo layers can help.
//   - fleet-serve: one engine per cycle, loaded from a cache a warm-up
//     slice of the same fleet wrote, serves the rest of the fleet. The
//     cross-program body-class layer serves most procedures, and its
//     table grows with every binary.
//   - edit-reanalyze: one engine per cycle, restored from a session and
//     a cache, runs single-procedure edits and their undos through
//     Reanalyze. Session diff, replay and re-record dominate.
//
// A run replays its stream in whole cycles until the op time is spent.
// Every op's schemes, specialized parameter sketches and signatures must
// hash equal to a one-shot Infer with one worker and every memo layer
// off; an error, a recovered panic or a mismatch is a failed op.
//
// The traced run serves one cycle with counters attached (Result cache
// stats, SchedHooks.BeforeTask task counts, runtime/metrics GC figures),
// then replays the same ops sequentially through the layers' public
// functions, once plain and once with a span around every call. The
// replay's output must equal the pipeline's; self times come from the
// spans, written to spans-<workload>.tsv in the work directory, and the
// traced minus the plain replay time is the tracing overhead.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"retypd/internal/solver"
)

// metric is one named, unit-carrying value of a run.
type metric struct {
	name  string
	value float64
	unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 10, "op time to measure, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for persisted engine state and span files")
	root := flag.String("root", ".", "repository root, for the source digest")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "state-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Println(hostFacts(*root))
	start := time.Now()
	w, err := buildWorkload(*name, *seed, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("workload %s seed %d: %s\n", w.name, *seed, w.mix)
	inputsDone := time.Now()
	if err := w.references(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	refsDone := time.Now()

	budget := time.Duration(*seconds * float64(time.Second))
	var t *tally
	var ms []metric
	if *trace == 0 {
		w.probe = nil // only the traced run's probes use it
		// Ops run the defaults a nil retypd.Config selects: one worker
		// per CPU and every memo layer on.
		t, err = measure(w, solver.DefaultOptions(), budget, 1<<30, nil)
		if err == nil {
			ms = endToEnd(t)
		}
	} else {
		t, ms, err = traced(w, budget, *work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	fmt.Printf("wall time: inputs and warm-up %.1fs, references %.1fs, measurement %.1fs\n",
		inputsDone.Sub(start).Seconds(), refsDone.Sub(inputsDone).Seconds(), time.Since(refsDone).Seconds())
	fmt.Printf("ops attempted %d, failed %d, failed_frac %.6g fraction\n", t.attempted, t.failed, frac(uint64(t.failed), uint64(t.attempted)))
	if t.firstFailure != "" {
		fmt.Printf("first failure: %s\n", t.firstFailure)
	}
	fmt.Printf("latency samples %d over %d set-ups\n", len(t.latMs), len(t.setupS))
	out := jsonResult{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		fmt.Printf("%-30s %14.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(t *tally) []metric {
	kinst := float64(t.insts) / 1000
	return []metric{
		{"throughput_kinst_s", kinst / t.opTime.Seconds(), "kinst/s"},
		{"latency_p50_ms", quantile(t.latMs, 0.5), "ms"},
		{"latency_p90_ms", quantile(t.latMs, 0.9), "ms"},
		{"setup_s", median(t.setupS), "s"},
		{"peak_rss_mb", t.peakRSSMB, "MB"},
		{"alloc_mb_per_kinst", float64(t.alloc) / 1e6 / kinst, "MB/kinst"},
		{"type_distance", t.agg.MeanDistance(), "distance"},
		{"conservativeness", t.agg.Conservativeness(), "fraction"},
		{"ptr_accuracy", t.agg.PointerAccuracy(), "fraction"},
		{"const_recall", t.agg.ConstRecall(), "fraction"},
	}
}

// hostFacts describes the host and the code measured, so results from
// different hosts or revisions are never read as a trend.
func hostFacts(root string) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
		}
	}
	return fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest(root))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, which
// identifies the measured code where no version-control data exists.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
