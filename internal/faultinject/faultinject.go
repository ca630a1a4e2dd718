// Package faultinject is a seeded fault-injection harness for the
// solver pipeline. It rides the solver's SchedHooks seam: the pipeline
// invokes SchedHooks.BeforeTask inside its per-task panic containment,
// so a fault injected here surfaces exactly as a real task crash would
// — as a structured *solver.AnalysisError naming the phase and task —
// which is what lets one harness sweep every phase × fault kind ×
// worker count and assert the engine's crash-safety contract from the
// outside: the engine survives, publishes nothing, and its next clean
// run is byte-identical to a never-faulted engine's.
//
// Plans are deterministic: the Nth task of a given phase faults, where
// tasks are counted in BeforeTask invocation order. Under a concurrent
// schedule which task is "Nth" varies run to run — that is the point;
// the contract must hold for whichever task the fault lands on.
package faultinject

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"retypd/internal/conc"
)

// ErrInjected is the sentinel the harness panics with. It unwraps
// through conc.WorkerPanic and solver.AnalysisError, so suites assert
// errors.Is(err, faultinject.ErrInjected) to distinguish injected
// faults from real bugs.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind selects what happens when the plan's trigger point is reached.
type Kind int

const (
	// Panic panics with ErrInjected inside the task's containment.
	Panic Kind = iota
	// Cancel calls the plan's Cancel function (typically the run
	// context's CancelFunc), then lets the task proceed — modeling a
	// caller abandoning the run mid-flight.
	Cancel
	// Stall sleeps Delay inside the task, modeling a straggler; paired
	// with a context deadline it turns into a deterministic
	// deadline-mid-phase fault.
	Stall
)

// Plan triggers one fault at the Nth task (0-based) of a given phase.
type Plan struct {
	Phase string // "F.0", "callgraph", "cfg", "F.1", "F.2", "F.3"
	N     int    // fire on the N-th BeforeTask of Phase
	Kind  Kind
	// Cancel is invoked by Kind Cancel (required then, unused otherwise).
	Cancel context.CancelFunc
	// Delay is how long Kind Stall sleeps (default 50ms).
	Delay time.Duration

	hits atomic.Int64
	done atomic.Bool
}

// Fired reports whether the fault triggered (false means the sweep's
// coordinates never materialized — e.g. phase F.0 with dedup disabled —
// and the run was effectively clean).
func (p *Plan) Fired() bool { return p.done.Load() }

// Hooks returns the SchedHooks carrying the plan, for
// solver.Options.SchedHooks. The returned hooks only set BeforeTask;
// they compose with nothing — fault runs never need schedule
// perturbation on top, determinism of the recovery is asserted against
// clean reference runs instead.
func (p *Plan) Hooks() *conc.SchedHooks {
	return &conc.SchedHooks{BeforeTask: func(phase, name string) {
		if phase != p.Phase {
			return
		}
		if p.hits.Add(1)-1 != int64(p.N) {
			return
		}
		p.done.Store(true)
		switch p.Kind {
		case Panic:
			panic(ErrInjected)
		case Cancel:
			p.Cancel()
		case Stall:
			d := p.Delay
			if d == 0 {
				d = 50 * time.Millisecond
			}
			time.Sleep(d)
		}
	}}
}

// CorruptCopy returns a copy of data with one deterministic, seeded
// byte flip (empty input is returned as-is). Cache-decode fault tests
// feed the result to LoadCacheData and assert a clean typed failure.
func CorruptCopy(data []byte, seed int64) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	// splitmix64 step: cheap, deterministic, well-mixed position/mask.
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	pos := int(z % uint64(len(out)))
	mask := byte(z>>8) | 1 // never zero: the flip must change the byte
	out[pos] ^= mask
	return out
}
