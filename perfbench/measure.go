package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	mx "retypd/internal/metrics"
	"retypd/internal/solver"
)

var bgctx = context.Background()

// minOps keeps at least ten latency samples beyond p90.
const minOps = 100

// wallCap bounds one measurement loop's wall time, checks included, so
// a much slower build still finishes a run well inside its time limit.
const wallCap = 100 * time.Second

// tally accumulates one measurement loop.
type tally struct {
	latMs     []float64
	insts     int
	opTime    time.Duration
	alloc     uint64
	setupS    []float64
	attempted int
	failed    int
	agg       mx.Aggregate
	peakRSSMB float64
	// firstFailure describes the first failed op, for the report.
	firstFailure string
}

// fail counts a failed op.
func (t *tally) fail(in *input, why string) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = in.name + ": " + why
	}
}

// check counts one finished op: an error, or an output whose digest
// differs from the plain reference's, is a failed op.
func (t *tally) check(in *input, out opResult, err error) bool {
	t.attempted++
	if err != nil {
		t.fail(in, err.Error())
		return false
	}
	if digest(out) != in.ref {
		t.fail(in, "output differs from the plain reference")
		return false
	}
	return true
}

// measure serves w's stream under opts in whole cycles until at least
// budget of op time and minOps ops are measured (or maxCycles cycles
// ran), checking every op's output. obs, when not nil, is read around
// every op and sees every successful one.
func measure(w *workload, opts solver.Options, budget time.Duration, maxCycles int, obs *layerObserver) (*tally, error) {
	t := &tally{}
	debug.FreeOSMemory()
	rss := startRSSSampler()
	defer func() { t.peakRSSMB = rss.stop() }()
	wallStart := time.Now()
	for cycle := 0; cycle < maxCycles; cycle++ {
		if cycle > 0 && t.opTime >= budget && len(t.latMs) >= minOps {
			break
		}
		if time.Since(wallStart) > wallCap {
			break
		}
		var eng *solver.Engine
		for i, in := range w.stream {
			if i%w.epoch == 0 {
				if w.epoch > 1 {
					// The previous epoch's engine is garbage; collect it
					// so each epoch's peak memory is its own.
					eng = nil
					debug.FreeOSMemory()
				}
				start := time.Now()
				e, err := w.setup()
				t.setupS = append(t.setupS, time.Since(start).Seconds())
				if err != nil {
					return nil, fmt.Errorf("set-up: %w", err)
				}
				eng = e
			}
			if obs != nil {
				obs.before()
			}
			a0 := heapAllocs()
			start := time.Now()
			out, err := runOp(bgctx, eng, in.src, w.reanalyze, opts)
			d := time.Since(start)
			t.alloc += heapAllocs() - a0
			t.opTime += d
			t.latMs = append(t.latMs, float64(d.Nanoseconds())/1e6)
			t.insts += in.insts
			if !t.check(in, out, err) {
				continue
			}
			scoreFirst(in, out, &t.agg)
			if obs != nil {
				obs.after(i, out)
			}
		}
	}
	return t, nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// rssSampler tracks the process's peak resident set while it runs.
type rssSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup
	peak  int64 // pages; written by the sampler goroutine only
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{})}
	s.peak = residentPages()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				if p := residentPages(); p > s.peak {
					s.peak = p
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	s.done.Wait()
	if p := residentPages(); p > s.peak {
		s.peak = p
	}
	return float64(s.peak*int64(os.Getpagesize())) / 1e6
}

// residentPages reads the resident set size from /proc/self/statm
// (0 where it is unavailable).
func residentPages() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	n, _ := strconv.ParseInt(f[1], 10, 64)
	return n
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
