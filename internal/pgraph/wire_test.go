package pgraph

import (
	"bytes"
	"testing"

	"retypd/internal/constraints"
	"retypd/internal/lattice"
	"retypd/internal/lru"
)

// TestKeyWireRoundTrip: a fingerprint key survives encode/decode
// byte-stably and compares equal.
func TestKeyWireRoundTrip(t *testing.T) {
	lat := lattice.Default()
	cs := constraints.MustParseSet(`
		f.in_stack0 <= int
		f.in_stack0.load <= f.out_eax
	`)
	fp := Fingerprint(cs, lat)
	key, ok := fp.KeyFor("f")
	if !ok {
		t.Fatal("KeyFor failed")
	}
	enc := key.AppendWire(nil)
	got, n, err := DecodeKeyWire(append(append([]byte(nil), enc...), 0x7))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) || got != key {
		t.Fatalf("round trip: consumed %d/%d, key equal: %v", n, len(enc), got == key)
	}
	if re := got.AppendWire(nil); !bytes.Equal(re, enc) {
		t.Fatal("re-encode not byte-stable")
	}
}

// TestSimplifyCacheWireRoundTrip: a populated cache exports, loads into
// a fresh cache, re-exports byte-identically, and the loaded cache
// serves the same rehydrated scheme.
func TestSimplifyCacheWireRoundTrip(t *testing.T) {
	lat := lattice.Default()
	cs := constraints.MustParseSet(`
		f.in_stack0 <= int
		f.in_stack0 <= #FileDescriptor
		int <= f.out_eax
	`)
	fp := Fingerprint(cs, lat)
	c := NewSimplifyCache(0)
	build := func() *Graph { return Build(cs, lat) }
	want, _ := c.Simplify(fp, "f", build) // miss: computes and stores

	enc := c.AppendWire(nil)
	c2 := NewSimplifyCache(0)
	n, loaded, err := c2.LoadWire(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) || loaded != c.Len() {
		t.Fatalf("loaded %d entries consuming %d/%d bytes", loaded, n, len(enc))
	}
	if re := c2.AppendWire(nil); !bytes.Equal(re, enc) {
		t.Fatal("export→import→export not byte-stable")
	}

	// The loaded entry must serve a hit with an identical scheme.
	got, o := c2.Simplify(fp, "f", func() *Graph {
		t.Fatal("loaded cache missed: build ran")
		return nil
	})
	if o != lru.Hit {
		t.Fatalf("expected a hit, got %v", o)
	}
	if got.Constraints.String() != want.Constraints.String() {
		t.Fatalf("loaded cache served a different scheme:\n%s\nvs\n%s", got.Constraints, want.Constraints)
	}
}

// TestFingerprintPortableContent: the digest must be a function of
// rendered content only — interning unrelated symbols first (shifting
// every id) must not change any fingerprint.
func TestFingerprintPortableContent(t *testing.T) {
	lat := lattice.Default()
	mk := func() Key {
		cs := constraints.MustParseSet(`
			g.in_stack0.load.σ32@4 <= int
			g.in_stack0 <= ptr
		`)
		fp := Fingerprint(cs, lat)
		k, ok := fp.KeyFor("g")
		if !ok {
			t.Fatal("KeyFor failed")
		}
		return k
	}
	before := mk()
	// Shift the global intern tables.
	for i := 0; i < 100; i++ {
		constraints.BaseDTV(constraints.Var("noise_" + string(rune('a'+i%26)) + string(rune('0'+i/26))))
	}
	after := mk()
	if before != after {
		t.Fatal("fingerprint changed after unrelated interning: digest depends on process-local ids")
	}
}
