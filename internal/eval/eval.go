// Package eval is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (§6) on the synthetic corpus,
// scoring Retypd and the re-implemented baselines with the TIE metrics
// and applying the §6.2 cluster-averaging methodology.
package eval

import (
	"fmt"
	"sort"
	"strings"

	"retypd/internal/asm"
	"retypd/internal/baselines"
	"retypd/internal/corpus"
	"retypd/internal/ctype"
	"retypd/internal/lattice"
	"retypd/internal/metrics"
	"retypd/internal/sketch"
	"retypd/internal/solver"
)

// BenchScore is one benchmark's aggregate under one system.
type BenchScore struct {
	Bench   string
	Cluster string
	Insts   int
	Agg     metrics.Aggregate
	// MemoStats carries the solver's per-run memo stats (zero for
	// non-solver systems); RunSuite sums them.
	solver.MemoStats
}

// ScoreOutcome pairs the ground truth of bench with the system's
// inferred sketches and accumulates the metrics.
func ScoreOutcome(o *baselines.Outcome, bench *corpus.Benchmark) metrics.Aggregate {
	sc := &metrics.Scorer{Lat: o.Lat}
	conv := ctype.NewConverter(o.Lat)
	var agg metrics.Aggregate

	// Pair parameter indices with formal locations: stack slots in
	// offset order, then register formals.
	locsOf := func(proc string) []string {
		var out []string
		for _, l := range o.Formals[proc] {
			out = append(out, l.ParamName())
		}
		return out
	}

	for _, truth := range bench.Truths {
		var sk *sketch.Sketch
		switch truth.Kind {
		case "param":
			locs := locsOf(truth.Func)
			if truth.Index < len(locs) {
				sk = o.ParamSk(truth.Func, locs[truth.Index])
			}
		case "ret":
			sk = o.OutSk(truth.Func)
		}
		var displayed *ctype.Type
		if sk == nil {
			sk = sketch.NewTop(o.Lat)
			displayed = ctype.Unknown()
		} else if truth.Kind == "param" {
			displayed = conv.ConvertParam(sk)
		} else {
			displayed = conv.FromSketch(sk)
		}
		agg.Add(sc.Score(sk, displayed, truth))
	}
	return agg
}

// RunSystem executes a system over benchmarks and scores each.
func RunSystem(sys baselines.System, benches []*corpus.Benchmark, lat *lattice.Lattice) []BenchScore {
	var out []BenchScore
	for _, b := range benches {
		prog, err := asm.Parse(b.Source)
		if err != nil {
			panic(fmt.Sprintf("corpus %s does not parse: %v", b.Name, err))
		}
		o := sys.Run(prog, lat)
		out = append(out, BenchScore{
			Bench:     b.Name,
			Cluster:   b.Cluster,
			Insts:     b.Insts,
			Agg:       ScoreOutcome(o, b),
			MemoStats: o.MemoStats,
		})
	}
	return out
}

// GroupScore is the cluster-averaged summary of a benchmark group.
type GroupScore struct {
	Distance    float64
	Interval    float64
	Conserv     float64
	PtrAcc      float64
	ConstRecall float64
	Points      int
}

// ClusterAverage applies the §6.2 methodology: benchmarks in a cluster
// are first averaged into a single data point, then points are
// averaged.
func ClusterAverage(scores []BenchScore) GroupScore {
	type point struct {
		dist, iv, cons, ptr, constr float64
		n                           int
	}
	byCluster := map[string][]point{}
	var order []string
	for _, s := range scores {
		key := s.Cluster
		if key == "" {
			key = "·" + s.Bench
		}
		if _, ok := byCluster[key]; !ok {
			order = append(order, key)
		}
		p := point{
			dist: s.Agg.MeanDistance(),
			iv:   s.Agg.MeanInterval(),
			cons: s.Agg.Conservativeness(),
			ptr:  s.Agg.PointerAccuracy(),
			n:    1,
		}
		if s.Agg.ConstTruth > 0 {
			p.constr = s.Agg.ConstRecall()
		} else {
			p.constr = 1
		}
		byCluster[key] = append(byCluster[key], p)
	}
	var g GroupScore
	for _, key := range order {
		pts := byCluster[key]
		var avg point
		for _, p := range pts {
			avg.dist += p.dist
			avg.iv += p.iv
			avg.cons += p.cons
			avg.ptr += p.ptr
			avg.constr += p.constr
		}
		k := float64(len(pts))
		g.Distance += avg.dist / k
		g.Interval += avg.iv / k
		g.Conserv += avg.cons / k
		g.PtrAcc += avg.ptr / k
		g.ConstRecall += avg.constr / k
		g.Points++
	}
	if g.Points > 0 {
		n := float64(g.Points)
		g.Distance /= n
		g.Interval /= n
		g.Conserv /= n
		g.PtrAcc /= n
		g.ConstRecall /= n
	}
	return g
}

// PlainAverage averages without clustering (Figure 10's "without
// clustering" row).
func PlainAverage(scores []BenchScore) GroupScore {
	var flat []BenchScore
	for _, s := range scores {
		s.Cluster = ""
		flat = append(flat, s)
	}
	return ClusterAverage(flat)
}

// Filter keeps the scores for which keep returns true.
func Filter(scores []BenchScore, keep func(BenchScore) bool) []BenchScore {
	var out []BenchScore
	for _, s := range scores {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// Table is a simple ASCII table builder.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len([]rune(h))
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len([]rune(c)); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// SortScores orders scores by benchmark name for stable output.
func SortScores(s []BenchScore) {
	sort.Slice(s, func(i, j int) bool { return s[i].Bench < s[j].Bench })
}

func pct(x float64) string  { return fmt.Sprintf("%.0f%%", 100*x) }
func num2(x float64) string { return fmt.Sprintf("%.2f", x) }
func isSpec(name string) bool {
	return strings.Contains(name, ".") && name[0] >= '0' && name[0] <= '9'
}
