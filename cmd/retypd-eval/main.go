// Command retypd-eval regenerates the paper's evaluation tables and
// figures (§6) on the synthetic corpus.
//
// Usage:
//
//	retypd-eval [-exp fig7|fig8|fig9|fig10|fig11|fig12|const|par|warm|fleet|all]
//	            [-scale N] [-quick] [-j N] [-timeout d] [-timings out.json]
//	            [-fleetn N] [-fleetshared F]
//
// -timeout bounds the whole invocation; SIGINT aborts it. Both exit
// with code 4 (experiments are not incrementally cancellable — the
// process exits rather than waiting for the sweep to finish). Other
// exit codes: 0 success, 1 run/write error, 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"retypd/internal/eval"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig7, fig8, fig9, fig10, fig11, fig12, const, par, warm, fleet, all")
	scale := flag.Int("scale", 0, "override corpus scale divisor (default from config)")
	quick := flag.Bool("quick", false, "use the small smoke-test configuration")
	workers := flag.Int("j", 0, "solver worker count for the scaling harness (0 = one per CPU)")
	parSize := flag.Int("parsize", 4000, "program size (instructions) for the -exp par, warm and fleet experiments")
	fleetN := flag.Int("fleetn", 4, "number of binaries in the -exp fleet experiment")
	fleetShared := flag.Float64("fleetshared", 0.5, "shared-library fraction of each -exp fleet binary")
	timeout := flag.Duration("timeout", 0, "abort the whole invocation after this duration (0 = no limit)")
	timings := flag.String("timings", "", "write scaling/parallel measurements to this JSON file")
	flag.Parse()

	// The experiment drivers are batch harnesses without internal
	// cancellation points, so the bound is enforced from outside: on
	// timeout or SIGINT the process exits with a distinct code.
	if *timeout > 0 {
		timer := time.AfterFunc(*timeout, func() {
			fmt.Fprintln(os.Stderr, "retypd-eval: timed out")
			os.Exit(4)
		})
		defer timer.Stop()
	}
	intr := make(chan os.Signal, 1)
	signal.Notify(intr, os.Interrupt)
	go func() {
		<-intr
		fmt.Fprintln(os.Stderr, "retypd-eval: interrupted")
		os.Exit(4)
	}()

	cfg := eval.DefaultConfig()
	if *quick {
		cfg = eval.QuickConfig()
	}
	if *scale > 0 {
		cfg.Suite.Scale = *scale
	}
	cfg.Parallelism = *workers

	needSuite := func(e string) bool {
		switch e {
		case "fig8", "fig9", "fig10", "const", "all":
			return true
		}
		return false
	}
	var suite *eval.SuiteScores
	if needSuite(*exp) {
		fmt.Fprintln(os.Stderr, "generating corpus and running all systems…")
		suite = eval.RunSuite(cfg)
		fmt.Fprintf(os.Stderr, "suite-wide memo effectiveness: body dedup %d hits / %d cross-program hits / %d misses, scheme cache %d hits / %d misses, shape cache %d hits / %d misses\n",
			suite.BodyDedupHits, suite.BodyDedupCrossHits, suite.BodyDedupMisses,
			suite.SchemeCacheHits, suite.SchemeCacheMisses, suite.ShapeCacheHits, suite.ShapeCacheMisses)
	}
	var scaling []eval.ScalingPoint
	if *exp == "fig11" || *exp == "fig12" || *exp == "all" {
		fmt.Fprintln(os.Stderr, "running scaling sweep…")
		scaling = eval.RunScaling(cfg)
	}
	var sweep []eval.ScalingPoint
	if *exp == "par" || *exp == "all" {
		fmt.Fprintln(os.Stderr, "running parallel worker sweep…")
		counts := []int{1, 2, 4, 8}
		if n := runtime.GOMAXPROCS(0); n > 8 {
			counts = append(counts, n)
		}
		sweep = eval.RunParallelSweep(*parSize, counts)
	}
	var warm []eval.ScalingPoint
	if *exp == "warm" || *exp == "all" {
		fmt.Fprintln(os.Stderr, "running warm-start experiment (cold / persisted-cache / incremental)…")
		warm = eval.RunWarmStart(*parSize, 8, *workers)
	}
	var fleet []eval.ScalingPoint
	if *exp == "fleet" || *exp == "all" {
		fmt.Fprintln(os.Stderr, "running fleet experiment (cross-program body classes via the persisted cache)…")
		fleet = eval.RunFleet(*fleetN, *fleetShared, *parSize, 20160613, *workers)
	}

	if *timings != "" {
		// Non-nil so an experiment without timing points writes "[]",
		// not JSON null.
		points := []eval.ScalingPoint{}
		points = append(append(append(append(points, scaling...), sweep...), warm...), fleet...)
		blob, err := json.MarshalIndent(points, "", "  ")
		if err == nil {
			err = os.WriteFile(*timings, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "retypd-eval: write timings:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote", *timings)
	}

	show := func(e string) {
		switch e {
		case "fig7":
			fmt.Println(eval.Figure7(cfg))
		case "fig8":
			fmt.Println(eval.Figure8(suite))
		case "fig9":
			fmt.Println(eval.Figure9(suite))
		case "fig10":
			fmt.Println(eval.Figure10(suite))
		case "fig11":
			fmt.Println(eval.Figure11(scaling))
		case "fig12":
			fmt.Println(eval.Figure12(scaling))
		case "const":
			fmt.Println(eval.ConstReport(suite))
		case "par":
			fmt.Println(eval.FigureParallel(sweep))
		case "warm":
			fmt.Println(eval.FigureWarmStart(warm))
		case "fleet":
			fmt.Println(eval.FigureFleet(fleet))
		}
	}
	if *exp == "all" {
		for _, e := range []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "const", "par", "warm", "fleet"} {
			show(e)
			fmt.Println()
		}
		return
	}
	show(*exp)
}
