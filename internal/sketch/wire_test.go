package sketch

import (
	"bytes"
	"testing"

	"retypd/internal/constraints"
	"retypd/internal/lattice"
	"retypd/internal/pgraph"
)

// solvedSketch builds a real decorated sketch through the normal
// pipeline pieces.
func solvedSketch(t *testing.T, lat *lattice.Lattice) *Sketch {
	t.Helper()
	cs := constraints.MustParseSet(`
		f.in_stack0 <= A
		A.load <= A.out_x
		A <= f.out_eax
		f.in_stack0 <= int
		#FileDescriptor <= f.out_eax
	`)
	b := NewBuilder(cs, lat)
	defer b.Release()
	sk := b.SketchFor("f", -1)
	g := pgraph.Build(cs, lat)
	defer g.Release()
	NewDecorator(g).Decorate(sk, "f")
	return sk
}

// TestSketchWireRoundTrip: encode→decode→encode is byte-stable and the
// decoded sketch is sealed and Equal to the original.
func TestSketchWireRoundTrip(t *testing.T) {
	lat := lattice.Default()
	for _, sk := range []*Sketch{solvedSketch(t, lat), NewTop(lat)} {
		enc := sk.AppendWire(nil)
		got, n, err := DecodeSketchWire(append(append([]byte(nil), enc...), 0x9))
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		}
		if !got.Sealed() {
			t.Fatal("decoded sketch not sealed")
		}
		if !got.Equal(sk) {
			t.Fatalf("decoded sketch differs:\n%s\nvs\n%s", got, sk)
		}
		if got.String() != sk.String() {
			t.Fatal("decoded sketch renders differently")
		}
		if re := got.AppendWire(nil); !bytes.Equal(re, enc) {
			t.Fatal("re-encode not byte-stable")
		}
	}
}

// TestSketchWireUnknownLattice: decoding against a process that never
// built the lattice reports ErrUnknownLattice; the shape-cache loader
// skips such entries instead of failing the load.
func TestSketchWireUnknownLattice(t *testing.T) {
	custom := lattice.NewBuilder().Below("mytype", "⊤").MustBuild()
	sk := NewTop(custom).Seal()
	enc := sk.AppendWire(nil)
	// Corrupt the signature so it matches no built lattice.
	enc[10] ^= 0xff
	if _, _, err := DecodeSketchWire(enc); err == nil {
		t.Fatal("decode with unknown lattice signature succeeded")
	}
}

// TestShapeCacheWireRoundTrip: a populated shape cache exports, loads
// into a fresh cache byte-stably, and the loaded cache serves the
// entry without invoking build.
func TestShapeCacheWireRoundTrip(t *testing.T) {
	lat := lattice.Default()
	cs := constraints.MustParseSet(`
		f.in_stack0 <= int
		f.in_stack0.load <= f.out_eax
	`)
	fp := pgraph.Fingerprint(cs, lat)
	c := NewShapeCache(0)
	build := func(v constraints.Var) *Sketch {
		b := NewBuilder(cs, lat)
		defer b.Release()
		sk := b.SketchFor(v, -1)
		g := pgraph.Build(cs, lat)
		defer g.Release()
		NewDecorator(g).Decorate(sk, v)
		return sk
	}
	want, _ := c.SketchFor(fp, "f", -1, build)

	enc := c.AppendWire(nil)
	c2 := NewShapeCache(0)
	n, loaded, skipped, err := c2.LoadWire(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) || loaded != 1 || skipped != 0 {
		t.Fatalf("load: n=%d/%d loaded=%d skipped=%d", n, len(enc), loaded, skipped)
	}
	if re := c2.AppendWire(nil); !bytes.Equal(re, enc) {
		t.Fatal("export→import→export not byte-stable")
	}
	got, _ := c2.SketchFor(fp, "f", -1, func(constraints.Var) *Sketch {
		t.Fatal("loaded shape cache missed: build ran")
		return nil
	})
	if !got.Equal(want) || got.String() != want.String() {
		t.Fatal("loaded shape cache served a different sketch")
	}
}
