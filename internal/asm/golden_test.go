package asm

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"retypd/internal/corpus"
)

// goldenPrograms is the spread of corpus programs whose parse is pinned
// by testdata/parse_golden.txt: every size the benchmarks use, several
// seeds, and one fleet member (prefixed names, shared library code).
func goldenPrograms() []*corpus.Benchmark {
	var out []*corpus.Benchmark
	for i, n := range []int{300, 1000, 2000, 4000, 8000} {
		out = append(out, corpus.Generate(fmt.Sprintf("g%d", n), int64(i+1), n))
	}
	out = append(out, corpus.Generate("g4000s7", 7, 4000))
	out = append(out, corpus.GenerateFleet("fleet", 3, 2000, 2, 0.5)...)
	return out
}

// printProgram renders everything Parse produces: procedures in
// order, each label (sorted by name) before the instruction it binds,
// and every instruction through Inst.String.
func printProgram(p *Program) string {
	var b strings.Builder
	for _, pr := range p.Procs {
		at := make(map[int][]string)
		for name, idx := range pr.Labels {
			at[idx] = append(at[idx], name)
		}
		fmt.Fprintf(&b, "proc %s\n", pr.Name)
		for i := 0; i <= len(pr.Insts); i++ {
			names := at[i]
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(&b, "%s:\n", name)
			}
			if i < len(pr.Insts) {
				fmt.Fprintf(&b, "    %s\n", pr.Insts[i])
			}
		}
		b.WriteString("endproc\n")
	}
	return b.String()
}

// TestParseGolden pins the parse of the corpus programs: one digest
// line per program in testdata/parse_golden.txt, plus the full printed
// form of the smallest in testdata/parse_golden_small.txt so a change
// shows as a readable diff. Set RETYPD_WRITE_PARSE_GOLDEN=1 to rewrite
// both after a deliberate change to the language.
func TestParseGolden(t *testing.T) {
	progs := goldenPrograms()
	var digests strings.Builder
	var small string
	for i, b := range progs {
		p, err := Parse(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		text := printProgram(p)
		if i == 0 {
			small = text
		}
		labels := 0
		for _, pr := range p.Procs {
			labels += len(pr.Labels)
		}
		fmt.Fprintf(&digests, "%s insts=%d procs=%d labels=%d sha256=%x\n",
			b.Name, p.NumInsts(), len(p.Procs), labels, sha256.Sum256([]byte(text)))
	}
	files := map[string]string{
		"testdata/parse_golden.txt":       digests.String(),
		"testdata/parse_golden_small.txt": small,
	}
	if os.Getenv("RETYPD_WRITE_PARSE_GOLDEN") != "" {
		for name, body := range files {
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, body := range files {
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != body {
			t.Errorf("%s differs from the parse of the corpus programs:\n%s", name, firstDiff(string(want), body))
		}
	}
}

// firstDiff reports the first line on which want and got differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl, gl)
		}
	}
	return "(identical lines)"
}
