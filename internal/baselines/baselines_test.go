package baselines

import (
	"testing"

	"retypd/internal/asm"
	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/solver"
)

// twoAllocators has two malloc wrappers with different pointee shapes —
// the §2.2 program that separates polymorphic subtype inference from
// monomorphic unification.
const twoAllocators = `
proc alloc_list
    push 8
    call malloc
    add esp, 4
    mov [eax], eax
    ret
endproc

proc alloc_pair
    push 12
    call malloc
    add esp, 4
    mov ecx, [eax+8]
    ret
endproc
`

func parse(t *testing.T, src string) *asm.Program {
	t.Helper()
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// TestSystemsRunAndPopulateOutcome: every baseline produces a usable
// Outcome over the same program (formals, HasOut, sketch accessors).
func TestSystemsRunAndPopulateOutcome(t *testing.T) {
	prog := parse(t, twoAllocators)
	lat := lattice.Default()
	for _, sys := range []System{Retypd(solver.NewEngine(0, 0)), TIEStyle(solver.NewEngine(0, 0)), Unify(), RewardsStyle(0.6)} {
		t.Run(sys.Name, func(t *testing.T) {
			o := sys.Run(prog, lat)
			if o.Lat != lat {
				t.Error("outcome lattice not propagated")
			}
			for _, proc := range []string{"alloc_list", "alloc_pair"} {
				if _, ok := o.Formals[proc]; !ok {
					t.Errorf("missing formals for %s", proc)
				}
				if !o.HasOut[proc] {
					t.Errorf("%s must have an output", proc)
				}
			}
			if sk := o.OutSk("no_such_proc"); sk != nil {
				t.Error("OutSk for unknown procedure must be nil")
			}
			if sk := o.ParamSk("no_such_proc", "stack0"); sk != nil {
				t.Error("ParamSk for unknown procedure must be nil")
			}
		})
	}
}

// TestRetypdVsUnifyPolymorphism is the end-to-end §2.2 comparison: the
// subtype system keeps the two allocators' return types independent,
// while the unification baseline (monomorphic externals) gives both
// wrappers one merged malloc result shape.
func TestRetypdVsUnifyPolymorphism(t *testing.T) {
	prog := parse(t, twoAllocators)
	lat := lattice.Default()

	ret := Retypd(solver.NewEngine(0, 0)).Run(prog, lat)
	listOut := ret.OutSk("alloc_list")
	pairOut := ret.OutSk("alloc_pair")
	if listOut == nil || pairOut == nil {
		t.Fatal("Retypd produced no out sketches")
	}
	// alloc_pair reads field σ32@8; alloc_list must not absorb it.
	field8 := label.Word{label.Load(), label.Field(32, 8)}
	if !pairOut.Accepts(field8) {
		t.Fatalf("Retypd lost alloc_pair's σ32@8 field:\n%s", pairOut)
	}
	if listOut.Accepts(field8) {
		t.Errorf("Retypd leaked alloc_pair's field into alloc_list — callsite polymorphism broken:\n%s", listOut)
	}

	uni := Unify().Run(prog, lat)
	uListOut := uni.OutSk("alloc_list")
	uPairOut := uni.OutSk("alloc_pair")
	if uListOut == nil || uPairOut == nil {
		t.Fatal("Unify produced no out sketches")
	}
	if !uListOut.Accepts(field8) {
		t.Errorf("unification baseline kept the malloc results separate — it should over-unify (§2.7):\n%s", uListOut)
	}
}

// TestTIEStyleTruncatesRecursion: the TIE baseline caps sketch depth
// (no recursive types, §7), so a recursive list type must be cut off.
func TestTIEStyleTruncatesRecursion(t *testing.T) {
	prog := parse(t, `
proc walk
    mov eax, [esp+4]
L:
    mov eax, [eax]
    test eax, eax
    jnz L
    ret
endproc
`)
	lat := lattice.Default()
	o := TIEStyle(solver.NewEngine(0, 0)).Run(prog, lat)
	sk := o.ParamSk("walk", "stack0")
	if sk == nil {
		t.Fatal("TIE* produced no parameter sketch")
	}
	deep := label.Word{}
	for i := 0; i < 8; i++ {
		deep = append(deep, label.Load(), label.Field(32, 0))
	}
	if sk.Accepts(deep) {
		t.Errorf("TIE* sketch accepts an 8-deep recursive word — depth truncation lost:\n%s", sk)
	}
}

// TestRewardsCoverageMonotone: a zero-coverage trace yields no typed
// instructions; raising coverage can only add information.
func TestRewardsCoverageMonotone(t *testing.T) {
	prog := parse(t, twoAllocators)
	lat := lattice.Default()

	zero := RewardsStyle(0).Run(prog, lat)
	full := RewardsStyle(1).Run(prog, lat)
	// With full coverage the allocators' return pointers are visible.
	if sk := full.OutSk("alloc_pair"); sk == nil || !sk.Accepts(label.Word{label.Load()}) {
		t.Error("full-coverage REWARDS* lost the return pointer")
	}
	// Zero coverage may still know the interface (liveness), but must
	// not have recovered the field access.
	if sk := zero.OutSk("alloc_pair"); sk != nil &&
		sk.Accepts(label.Word{label.Load(), label.Field(32, 8)}) {
		t.Error("zero-coverage REWARDS* recovered a field it never executed")
	}
}
