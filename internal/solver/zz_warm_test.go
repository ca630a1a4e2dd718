package solver

import (
	"bytes"
	"runtime"
	"sort"
	"testing"
	"time"

	"retypd/internal/asm"
	"retypd/internal/bodyfp"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
)

func TestZZRatio(t *testing.T) {
	lat := lattice.Default()
	b := corpus.Generate("session", 7, 1500)
	opts := DefaultOptions()
	eng := NewEngine(0, 0)
	eng.Infer(asm.MustParse(b.Source), lat, nil, opts)
	var sess bytes.Buffer
	eng.SaveSessionTo(&sess)
	var cs, ws, rs []float64
	for i := 0; i < 150; i++ {
		progC := asm.MustParse(b.Source)
		runtime.GC()
		t0 := time.Now()
		Infer(progC, lat, nil, opts)
		c := time.Since(t0)
		progW := asm.MustParse(b.Source)
		runtime.GC()
		t1 := time.Now()
		e2 := NewEngine(0, 0)
		e2.LoadSessionData(sess.Bytes())
		e2.Reanalyze(progW, lat, nil, opts)
		w := time.Since(t1)
		cs = append(cs, float64(c.Microseconds()))
		ws = append(ws, float64(w.Microseconds()))
		rs = append(rs, float64(c)/float64(w))
	}
	q := func(x []float64) (float64, float64, float64) {
		sort.Float64s(x)
		return x[len(x)/4], x[len(x)/2], x[3*len(x)/4]
	}
	a1, a2, a3 := q(cs)
	b1, b2, b3 := q(ws)
	r1, r2, r3 := q(rs)
	t.Logf("cold us %.0f [%.0f %.0f]  warm us %.0f [%.0f %.0f]  ratio %.2f [%.2f %.2f]", a2, a1, a3, b2, b1, b3, r2, r1, r3)
}

func BenchmarkZZLoad(b *testing.B) {
	lat := lattice.Default()
	bb := corpus.Generate("session", 7, 1500)
	opts := DefaultOptions()
	eng := NewEngine(0, 0)
	eng.Infer(asm.MustParse(bb.Source), lat, nil, opts)
	var sess bytes.Buffer
	eng.SaveSessionTo(&sess)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e2 := NewEngine(0, 0)
		e2.LoadSessionData(sess.Bytes())
	}
}

func BenchmarkZZWarm1(b *testing.B) {
	lat := lattice.Default()
	bb := corpus.Generate("session", 7, 1500)
	opts := DefaultOptions()
	opts.Workers = 1
	eng := NewEngine(0, 0)
	eng.Infer(asm.MustParse(bb.Source), lat, nil, opts)
	var sess bytes.Buffer
	eng.SaveSessionTo(&sess)
	progs := make([]*asm.Program, 0, 512)
	for i := 0; i < 512; i++ {
		progs = append(progs, asm.MustParse(bb.Source))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e2 := NewEngine(0, 0)
		e2.LoadSessionData(sess.Bytes())
		e2.Reanalyze(progs[i%len(progs)], lat, nil, opts)
	}
}

func BenchmarkZZCold1(b *testing.B) {
	lat := lattice.Default()
	bb := corpus.Generate("session", 7, 1500)
	opts := DefaultOptions()
	opts.Workers = 1
	progs := make([]*asm.Program, 0, 256)
	for i := 0; i < 256; i++ {
		progs = append(progs, asm.MustParse(bb.Source))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer(progs[i%len(progs)], lat, nil, opts)
	}
}

func BenchmarkZZGroup(b *testing.B) {
	bb := corpus.Generate("session", 7, 1500)
	prog := asm.MustParse(bb.Source)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		order := prog.Procs
		n := len(order)
		rep := make([]int, n)
		bodyGroups := make(map[uint64][]int, n)
		for i, p := range order {
			rep[i] = i
			h := bodyHashOf(p)
			for _, j := range bodyGroups[h] {
				if order[j].EqualBody(p) {
					rep[i] = j
					break
				}
			}
			if rep[i] == i {
				bodyGroups[h] = append(bodyGroups[h], i)
			}
		}
	}
}

func BenchmarkZZHash(b *testing.B) {
	bb := corpus.Generate("session", 7, 1500)
	prog := asm.MustParse(bb.Source)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		for _, p := range prog.Procs {
			bodyHashOf(p)
		}
	}
}

func TestZZGroups(t *testing.T) {
	lat := lattice.Default()
	bb := corpus.Generate("session", 7, 1500)
	prog := asm.MustParse(bb.Source)
	conf := sessionConfig(lat, DefaultOptions())
	eq := 0
	for i, p := range prog.Procs {
		for j := 0; j < i; j++ {
			if prog.Procs[j].EqualBody(p) {
				eq++
				break
			}
		}
	}
	fe := 0
	fps := make([]*bodyfp.FP, len(prog.Procs))
	for i, p := range prog.Procs {
		fps[i] = bodyfp.Compute(p, conf, namedCallee)
		for j := 0; j < i; j++ {
			if fps[j].EquivalentTo(fps[i]) && fps[j].SameRegisters(fps[i]) {
				fe++
				break
			}
		}
	}
	t.Logf("procs=%d equalbody-dups=%d fp-dups=%d", len(prog.Procs), eq, fe)
}

func BenchmarkZZNewEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewEngine(0, 0)
	}
}
