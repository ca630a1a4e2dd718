package label

import (
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

// TestVarianceTable checks Table 1: .in and .store are contravariant,
// .out/.load/.σN@k covariant.
func TestVarianceTable(t *testing.T) {
	cases := []struct {
		l    Label
		want Variance
	}{
		{In("stack0"), Contravariant},
		{Out("eax"), Covariant},
		{Load(), Covariant},
		{Store(), Contravariant},
		{Field(32, 4), Covariant},
	}
	for _, c := range cases {
		if c.l.Variance() != c.want {
			t.Errorf("⟨%s⟩ = %v, want %v", c.l, c.l.Variance(), c.want)
		}
	}
}

// TestSignMonoidQuick property-checks the {⊕,⊖} monoid laws
// (Definition 3.2).
func TestSignMonoidQuick(t *testing.T) {
	if err := quick.Check(func(a, b, c bool) bool {
		x, y, z := Variance(a), Variance(b), Variance(c)
		return x.Mul(y).Mul(z) == x.Mul(y.Mul(z))
	}, nil); err != nil {
		t.Error("associativity:", err)
	}
	if err := quick.Check(func(a bool) bool {
		x := Variance(a)
		return x.Mul(Covariant) == x && Covariant.Mul(x) == x
	}, nil); err != nil {
		t.Error("identity:", err)
	}
	if Contravariant.Mul(Contravariant) != Covariant {
		t.Error("⊖·⊖ must be ⊕")
	}
}

// TestWordVariance spells out the Figure 2 examples.
func TestWordVariance(t *testing.T) {
	w := Word{In("stack0"), Load(), Field(32, 4)}
	if w.Variance() != Contravariant {
		t.Errorf("⟨in.load.σ32@4⟩ should be ⊖ (one contravariant label)")
	}
	w2 := Word{In("stack0"), Store()}
	if w2.Variance() != Covariant {
		t.Errorf("⟨in.store⟩ should be ⊕ (two contravariant labels)")
	}
}

// TestParseRoundTrip checks Parse ∘ String = id on a label zoo.
func TestParseRoundTrip(t *testing.T) {
	zoo := []Label{
		In("stack0"), In("ecx"), Out("eax"), Load(), Store(),
		Field(32, 0), Field(8, 12), Field(16, 100),
	}
	for _, l := range zoo {
		got, err := Parse(l.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", l.String(), err)
		}
		if got != l {
			t.Errorf("round trip %q → %v", l.String(), got)
		}
	}
	w := Word(zoo)
	got, err := ParseWord(w.String())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(w) {
		t.Errorf("word round trip failed: %s", got)
	}
}

// TestParseASCIIAlias: s32@4 is accepted for σ32@4.
func TestParseASCIIAlias(t *testing.T) {
	l, err := Parse("s32@4")
	if err != nil {
		t.Fatal(err)
	}
	if l != Field(32, 4) {
		t.Errorf("got %v", l)
	}
}

// TestPointerDual checks the load/store involution used by S-POINTER.
func TestPointerDual(t *testing.T) {
	if Load().PointerDual() != Store() || Store().PointerDual() != Load() {
		t.Error("load/store must be dual")
	}
	if In("x").PointerDual() != In("x") {
		t.Error("non-pointer labels are self-dual")
	}
}

// TestCompareTotalOrder: Compare is a strict weak order on a sample.
func TestCompareTotalOrder(t *testing.T) {
	zoo := []Label{In("a"), In("b"), Out("eax"), Load(), Store(), Field(8, 0), Field(32, 0), Field(32, 4)}
	for _, a := range zoo {
		if Compare(a, a) != 0 {
			t.Errorf("Compare(%s,%s) != 0", a, a)
		}
		for _, b := range zoo {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("antisymmetry violated for %s,%s", a, b)
			}
		}
	}
}

// TestInternLocConcurrent: goroutines interning the same location
// names at once agree on every label, and each label renders its own
// name back.
func TestInternLocConcurrent(t *testing.T) {
	const goroutines, names = 8, 300
	got := make([][]Label, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ls := make([]Label, names)
			for i := range ls {
				// Each goroutine walks the names from a different start.
				k := (i + g*37) % names
				ls[k] = In("concurrent_loc" + strconv.Itoa(k))
			}
			got[g] = ls
		}(g)
	}
	wg.Wait()
	for k := 0; k < names; k++ {
		want := "concurrent_loc" + strconv.Itoa(k)
		for g := 0; g < goroutines; g++ {
			if got[g][k] != got[0][k] {
				t.Fatalf("goroutines 0 and %d interned %q differently", g, want)
			}
			if loc := got[g][k].Loc(); loc != want {
				t.Fatalf("goroutine %d: Loc() = %q, want %q", g, loc, want)
			}
		}
	}
}

// TestSortLabelsByLocName: in/out labels order by location name, not by
// interning order, so in_stack10 sorts before in_stack4 even when
// stack4 was interned first.
func TestSortLabelsByLocName(t *testing.T) {
	late := In("sortcheck_stack4")   // interned first: the smaller id
	early := In("sortcheck_stack10") // interned second: the larger id
	for _, tc := range []struct{ first, second Label }{
		{In("stack10"), In("stack4")},
		{early, late},
		{Out("stack10"), Out("stack4")},
	} {
		ls := []Label{tc.second, tc.first}
		SortLabels(ls)
		if ls[0] != tc.first || ls[1] != tc.second {
			t.Errorf("SortLabels = [%s %s], want [%s %s]", ls[0], ls[1], tc.first, tc.second)
		}
		if Compare(tc.first, tc.second) >= 0 || Compare(tc.second, tc.first) <= 0 {
			t.Errorf("Compare(%s, %s) disagrees with name order", tc.first, tc.second)
		}
	}
}
