package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"

	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/lru"
	"retypd/internal/pgraph"
)

// Wire encoding of sketches and shape-memo entries. A sketch automaton
// mentions no type-variable names — only field labels, variances,
// flags, and lattice elements — so its portable form is small and
// self-contained: lattice elements are encoded by *name* together with
// the owning lattice's content signature, and decoding re-binds them
// through lattice.BySignature. An entry whose lattice has not been
// built in the decoding process is unusable there (its fingerprint
// could never be computed either) and is skipped by the loader.

// ErrUnknownLattice reports a sketch wire form whose lattice signature
// has no built lattice in this process.
var ErrUnknownLattice = fmt.Errorf("sketch: wire form references a lattice not built in this process")

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decodeBytes decodes one length-prefixed string; the returned slice
// aliases data.
func decodeBytes(data []byte, what string) ([]byte, int, error) {
	ln, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < ln {
		return nil, 0, fmt.Errorf("sketch: truncated %s in wire form", what)
	}
	return data[n : n+int(ln)], n + int(ln), nil
}

// AppendWire appends s's canonical wire form to buf. The receiver is
// typically sealed (cache values always are), but sealing is not
// required; the decoded sketch is always sealed.
func (s *Sketch) AppendWire(buf []byte) []byte {
	buf = appendString(buf, s.Lat.Signature())
	buf = binary.AppendUvarint(buf, uint64(len(s.States)))
	for i := range s.States {
		st := &s.States[i]
		var meta byte
		if st.Variance == label.Covariant {
			meta |= 1
		}
		meta |= byte(st.Flags) << 1
		buf = append(buf, meta)
		buf = appendString(buf, s.Lat.Name(st.Lower))
		buf = appendString(buf, s.Lat.Name(st.Upper))
		buf = binary.AppendUvarint(buf, uint64(len(st.LowerSet)))
		for _, e := range st.LowerSet {
			buf = appendString(buf, s.Lat.Name(e))
		}
		buf = binary.AppendUvarint(buf, uint64(len(st.UpperSet)))
		for _, e := range st.UpperSet {
			buf = appendString(buf, s.Lat.Name(e))
		}
		buf = binary.AppendUvarint(buf, uint64(len(st.Edges)))
		for _, e := range st.Edges {
			buf = label.AppendWire(buf, e.Label)
			buf = binary.AppendUvarint(buf, uint64(e.To))
		}
	}
	return buf
}

// DecodeSketchWire decodes one sketch from the front of data, re-binding
// lattice elements by name through the process's built-lattice registry,
// and returns the sealed sketch plus the bytes consumed. It returns
// ErrUnknownLattice (wrapped) when the encoded lattice signature has no
// built lattice here.
func DecodeSketchWire(data []byte) (*Sketch, int, error) {
	sig, n, err := decodeBytes(data, "lattice signature")
	if err != nil {
		return nil, 0, err
	}
	lat, ok := lattice.BySignatureBytes(sig)
	if !ok {
		return nil, 0, fmt.Errorf("%w (signature %.16s…)", ErrUnknownLattice, sig)
	}
	nstates, m := binary.Uvarint(data[n:])
	if m <= 0 {
		return nil, 0, fmt.Errorf("sketch: truncated state count in wire form")
	}
	n += m
	// A sketch automaton always has its root state (state 0); every
	// state costs at least its meta byte, so a count beyond the
	// remaining bytes is corrupt, and checking before make keeps a
	// crafted count from allocating unboundedly.
	if nstates == 0 {
		return nil, 0, fmt.Errorf("sketch: wire form has no root state")
	}
	if nstates > uint64(len(data)-n) {
		return nil, 0, fmt.Errorf("sketch: state count %d exceeds wire form size", nstates)
	}
	elem := func(what string) (lattice.Elem, error) {
		name, m, err := decodeBytes(data[n:], what)
		if err != nil {
			return 0, err
		}
		n += m
		e, ok := lat.ElemBytes(name)
		if !ok {
			return 0, fmt.Errorf("sketch: wire form references unknown lattice element %q", name)
		}
		return e, nil
	}
	out := &Sketch{Lat: lat, States: make([]State, nstates)}
	for i := range out.States {
		if n >= len(data) {
			return nil, 0, fmt.Errorf("sketch: truncated state in wire form")
		}
		meta := data[n]
		n++
		st := &out.States[i]
		st.Variance = meta&1 != 0
		st.Flags = Flags(meta >> 1)
		for _, dst := range []*lattice.Elem{&st.Lower, &st.Upper} {
			if *dst, err = elem("lattice element"); err != nil {
				return nil, 0, err
			}
		}
		for _, set := range []*[]lattice.Elem{&st.LowerSet, &st.UpperSet} {
			count, m := binary.Uvarint(data[n:])
			if m <= 0 || count > uint64(len(data)-n-m) {
				return nil, 0, fmt.Errorf("sketch: truncated bound set in wire form")
			}
			n += m
			if count > 0 {
				*set = make([]lattice.Elem, 0, count)
			}
			for j := uint64(0); j < count; j++ {
				e, err := elem("bound element")
				if err != nil {
					return nil, 0, err
				}
				*set = append(*set, e)
			}
		}
		nedges, m := binary.Uvarint(data[n:])
		if m <= 0 || nedges > uint64(len(data)-n-m) {
			return nil, 0, fmt.Errorf("sketch: truncated edge count in wire form")
		}
		n += m
		if nedges > 0 {
			st.Edges = make([]Edge, 0, nedges)
		}
		for j := uint64(0); j < nedges; j++ {
			l, m, err := label.DecodeWire(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m
			to, m := binary.Uvarint(data[n:])
			if m <= 0 || to >= nstates {
				return nil, 0, fmt.Errorf("sketch: edge target out of range in wire form")
			}
			n += m
			st.Edges = append(st.Edges, Edge{Label: l, To: int(to)})
		}
	}
	return out.Seal(), n, nil
}

// AppendWire appends the shape cache's entries to buf in recency order:
// uvarint(count), then per entry the fingerprint key, varint(depth
// bound) and the sealed sketch.
func (c *ShapeCache) AppendWire(buf []byte) []byte {
	entries := c.lru.Export()
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = e.Key.pk.AppendWire(buf)
		buf = binary.AppendVarint(buf, int64(e.Key.depth))
		buf = e.Val.AppendWire(buf)
	}
	return buf
}

// LoadWire decodes entries produced by AppendWire into the cache,
// preserving recency order. Entries whose lattice has not been built in
// this process are skipped (counted in skipped), not errors: they are
// unusable here but harmless. Malformed bytes abort with an error.
func (c *ShapeCache) LoadWire(data []byte) (n, loaded, skipped int, err error) {
	count, m := binary.Uvarint(data)
	if m <= 0 {
		return 0, 0, 0, fmt.Errorf("sketch: truncated cache entry count")
	}
	n = m
	// Each entry encodes at least a fingerprint key; a count beyond the
	// remaining bytes is corrupt, and pre-sizing from it would let a
	// crafted count allocate unboundedly.
	if count > uint64(len(data)-n) {
		return 0, 0, 0, fmt.Errorf("sketch: cache entry count %d exceeds wire form size", count)
	}
	entries := make([]lru.Entry[shapeKey, *Sketch], 0, count)
	for i := uint64(0); i < count; i++ {
		pk, m, err := pgraph.DecodeKeyWire(data[n:])
		if err != nil {
			return 0, 0, 0, err
		}
		n += m
		depth, m := binary.Varint(data[n:])
		if m <= 0 {
			return 0, 0, 0, fmt.Errorf("sketch: truncated depth bound in wire form")
		}
		n += m
		sk, m, err := DecodeSketchWire(data[n:])
		if err != nil {
			if errors.Is(err, ErrUnknownLattice) {
				// Skip the entry's bytes: re-measure by encoding length.
				m, err = skipSketchWire(data[n:])
				if err != nil {
					return 0, 0, 0, err
				}
				n += m
				skipped++
				continue
			}
			return 0, 0, 0, err
		}
		n += m
		entries = append(entries, lru.Entry[shapeKey, *Sketch]{
			Key: shapeKey{pk: pk, depth: int(depth)},
			Val: sk,
		})
	}
	c.lru.Import(entries)
	return n, len(entries), skipped, nil
}

// skipSketchWire measures one encoded sketch without binding a lattice,
// so loads can step over entries for lattices this process never built.
func skipSketchWire(data []byte) (int, error) {
	skipString := func(n int) (int, error) {
		ln, m := binary.Uvarint(data[n:])
		if m <= 0 || uint64(len(data)-n-m) < ln {
			return 0, fmt.Errorf("sketch: truncated wire form while skipping entry")
		}
		return n + m + int(ln), nil
	}
	n, err := skipString(0)
	if err != nil {
		return 0, err
	}
	nstates, m := binary.Uvarint(data[n:])
	if m <= 0 {
		return 0, fmt.Errorf("sketch: truncated state count while skipping entry")
	}
	n += m
	for i := uint64(0); i < nstates; i++ {
		if n >= len(data) {
			return 0, fmt.Errorf("sketch: truncated state while skipping entry")
		}
		n++ // meta byte
		for k := 0; k < 2; k++ {
			if n, err = skipString(n); err != nil {
				return 0, err
			}
		}
		for k := 0; k < 2; k++ {
			count, m := binary.Uvarint(data[n:])
			if m <= 0 {
				return 0, fmt.Errorf("sketch: truncated bound set while skipping entry")
			}
			n += m
			for j := uint64(0); j < count; j++ {
				if n, err = skipString(n); err != nil {
					return 0, err
				}
			}
		}
		nedges, m := binary.Uvarint(data[n:])
		if m <= 0 {
			return 0, fmt.Errorf("sketch: truncated edge count while skipping entry")
		}
		n += m
		for j := uint64(0); j < nedges; j++ {
			_, m, err := label.DecodeWire(data[n:])
			if err != nil {
				return 0, err
			}
			n += m
			if _, m = binary.Uvarint(data[n:]); m <= 0 {
				return 0, fmt.Errorf("sketch: truncated edge target while skipping entry")
			}
			n += m
		}
	}
	return n, nil
}
