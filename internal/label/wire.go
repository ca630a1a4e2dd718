package label

import (
	"encoding/binary"
	"fmt"
)

// Wire encoding of labels — the canonical byte form shared by every
// portable cache encoding (constraint-set fingerprints, persisted
// scheme/shape entries, body fingerprints). The encoding is a pure
// function of the label's semantic content, so it is identical across
// processes regardless of interning order; changing it invalidates
// every persisted cache, which is why the cache file format carries a
// version (see solver.SaveCache) that must be bumped alongside any
// change here.
//
// Layout: one kind byte, then the kind's payload —
//
//	KIn/KOut: uvarint(len(loc)) ++ loc bytes
//	KLoad/KStore: empty
//	KField: varint(bits) ++ varint(off)
//
// Each label is self-delimiting; words are encoded as a uvarint length
// followed by the member labels (see intern.AppendWordWire).

// AppendWire appends the canonical wire form of l to buf.
func AppendWire(buf []byte, l Label) []byte {
	buf = append(buf, byte(l.kind))
	switch l.kind {
	case KIn, KOut:
		loc := locName(l.loc)
		buf = binary.AppendUvarint(buf, uint64(len(loc)))
		buf = append(buf, loc...)
	case KField:
		buf = binary.AppendVarint(buf, int64(l.bits))
		buf = binary.AppendVarint(buf, int64(l.off))
	}
	return buf
}

// DecodeWire decodes one label from the front of data, returning the
// number of bytes consumed.
func DecodeWire(data []byte) (Label, int, error) {
	if len(data) == 0 {
		return Label{}, 0, fmt.Errorf("label: truncated wire form")
	}
	k := Kind(data[0])
	n := 1
	switch k {
	case KIn, KOut:
		ln, m := binary.Uvarint(data[n:])
		if m <= 0 || uint64(len(data)-n-m) < ln {
			return Label{}, 0, fmt.Errorf("label: truncated location in wire form")
		}
		n += m
		loc := internLocBytes(data[n : n+int(ln)])
		n += int(ln)
		return Label{kind: k, loc: loc}, n, nil
	case KLoad, KStore:
		return Label{kind: k}, n, nil
	case KField:
		bits, m := binary.Varint(data[n:])
		if m <= 0 {
			return Label{}, 0, fmt.Errorf("label: truncated field width in wire form")
		}
		n += m
		off, m := binary.Varint(data[n:])
		if m <= 0 {
			return Label{}, 0, fmt.Errorf("label: truncated field offset in wire form")
		}
		n += m
		return Label{kind: k, bits: int(bits), off: int(off)}, n, nil
	default:
		return Label{}, 0, fmt.Errorf("label: unknown wire kind %d", data[0])
	}
}
