package constraints

import (
	"encoding/binary"
	"fmt"

	"retypd/internal/intern"
)

// Wire encoding of derived type variables, constraints and constraint
// sets — the canonical byte form persisted cache entries are written
// in. The encoding is a pure function of rendered content (base names
// as bytes, paths as label wire forms), never of intern ids, so a blob
// written by one process decodes to equivalent values in any other;
// decoding re-interns through the process-local table. Insertion order
// is preserved exactly: an encode→decode→encode round trip is
// byte-identical, which the property tests pin down.

// AppendDTVWire appends d's canonical wire form to buf:
// uvarint(len(base)) ++ base bytes ++ word wire (see
// intern.AppendWordWire).
func AppendDTVWire(buf []byte, d DTV) []byte {
	base := intern.StringOf(intern.DTVBase(d.ref))
	buf = binary.AppendUvarint(buf, uint64(len(base)))
	buf = append(buf, base...)
	return intern.AppendWordWire(buf, intern.DTVWord(d.ref))
}

// DecodeDTVWire re-interns one derived type variable from the front of
// data, returning the bytes consumed.
func DecodeDTVWire(data []byte) (DTV, int, error) {
	ln, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < ln {
		return DTV{}, 0, fmt.Errorf("constraints: truncated base variable in wire form")
	}
	base := intern.InternBytes(data[n : n+int(ln)])
	n += int(ln)
	w, m, err := intern.DecodeWordWire(data[n:])
	if err != nil {
		return DTV{}, 0, err
	}
	n += m
	return DTV{ref: intern.DTV(base, w)}, n, nil
}

// AppendWire appends the set's canonical wire form to buf:
// uvarint(count) then each constraint (kind byte + its operand DTVs) in
// insertion order.
func (s *Set) AppendWire(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.Len()))
	for _, c := range s.Constraints() {
		buf = append(buf, byte(c.Kind))
		switch c.Kind {
		case KindSub:
			buf = AppendDTVWire(buf, c.L)
			buf = AppendDTVWire(buf, c.R)
		default:
			buf = AppendDTVWire(buf, c.X)
			buf = AppendDTVWire(buf, c.Y)
			buf = AppendDTVWire(buf, c.Z)
		}
	}
	return buf
}

// DecodeSetWire re-interns one constraint set from the front of data,
// returning the bytes consumed. The decoded set preserves the encoded
// insertion order. Decoding appends without consulting the membership
// index (producers only encode deduplicated sets, and the files the
// blobs travel in are checksummed); the index materializes lazily on
// the first mutation, exactly like the SubstituteBases fast paths.
func DecodeSetWire(data []byte) (*Set, int, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("constraints: truncated set length in wire form")
	}
	if count > uint64(len(data)) {
		return nil, 0, fmt.Errorf("constraints: set length %d exceeds wire form size", count)
	}
	s := &Set{list: make([]Constraint, 0, count)}
	for i := uint64(0); i < count; i++ {
		if n >= len(data) {
			return nil, 0, fmt.Errorf("constraints: truncated constraint in wire form")
		}
		kind := ConstraintKind(data[n])
		n++
		dec := func() (DTV, error) {
			d, m, err := DecodeDTVWire(data[n:])
			n += m
			return d, err
		}
		switch kind {
		case KindSub:
			l, err := dec()
			if err != nil {
				return nil, 0, err
			}
			r, err := dec()
			if err != nil {
				return nil, 0, err
			}
			s.list = append(s.list, Sub(l, r))
		case KindAdd, KindSubtract:
			x, err := dec()
			if err != nil {
				return nil, 0, err
			}
			y, err := dec()
			if err != nil {
				return nil, 0, err
			}
			z, err := dec()
			if err != nil {
				return nil, 0, err
			}
			s.list = append(s.list, Constraint{Kind: kind, X: x, Y: y, Z: z})
		default:
			return nil, 0, fmt.Errorf("constraints: unknown constraint kind %d in wire form", kind)
		}
	}
	return s, n, nil
}

// AppendSchemeWire appends sc's canonical wire form to buf:
// uvarint(len(root)) ++ root bytes ++ constraint-set wire ++
// uvarint(count) existential names. Like the set encoding it is a pure
// function of rendered content, and an encode→decode→encode round trip
// is byte-identical.
func AppendSchemeWire(buf []byte, sc *Scheme) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(sc.Root)))
	buf = append(buf, sc.Root...)
	buf = sc.Constraints.AppendWire(buf)
	buf = binary.AppendUvarint(buf, uint64(len(sc.Existential)))
	for _, v := range sc.Existential {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// DecodeSchemeWire decodes one scheme from the front of data, returning
// the bytes consumed.
func DecodeSchemeWire(data []byte) (*Scheme, int, error) {
	decStr := func(n int, what string) (string, int, error) {
		ln, m := binary.Uvarint(data[n:])
		if m <= 0 || uint64(len(data)-n-m) < ln {
			return "", 0, fmt.Errorf("constraints: truncated %s in scheme wire form", what)
		}
		n += m
		return string(data[n : n+int(ln)]), n + int(ln), nil
	}
	root, n, err := decStr(0, "root variable")
	if err != nil {
		return nil, 0, err
	}
	cs, m, err := DecodeSetWire(data[n:])
	if err != nil {
		return nil, 0, err
	}
	n += m
	count, m := binary.Uvarint(data[n:])
	if m <= 0 {
		return nil, 0, fmt.Errorf("constraints: truncated existential count in scheme wire form")
	}
	n += m
	if count > uint64(len(data)-n) {
		return nil, 0, fmt.Errorf("constraints: existential count %d exceeds wire form size", count)
	}
	sc := &Scheme{Root: Var(root), Constraints: cs}
	if count > 0 {
		sc.Existential = make([]Var, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		var v string
		v, n, err = decStr(n, "existential variable")
		if err != nil {
			return nil, 0, err
		}
		sc.Existential = append(sc.Existential, Var(v))
	}
	return sc, n, nil
}
