// Package label implements the field-label alphabet Σ of the Retypd type
// system together with its variance structure (Noonan et al., PLDI 2016,
// §3.1, Table 1).
//
// A derived type variable is a base variable followed by a word over Σ;
// each label is a capability of the type: being callable with an input at
// some location (.in_L), producing an output (.out_L), being readable
// (.load) or writable (.store) through, or having an N-bit field at byte
// offset k (.σN@k).
//
// Every label has a variance: ⊕ (covariant) or ⊖ (contravariant).
// Variance extends to words multiplicatively: ⟨ε⟩ = ⊕ and
// ⟨xw⟩ = ⟨x⟩·⟨w⟩ in the sign monoid {⊕,⊖} (Definition 3.2).
package label

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Variance is an element of the sign monoid {⊕, ⊖}.
type Variance bool

const (
	// Covariant is ⊕, the monoid identity.
	Covariant Variance = true
	// Contravariant is ⊖.
	Contravariant Variance = false
)

// Mul is the sign-monoid product: ⊕·⊕ = ⊖·⊖ = ⊕, ⊕·⊖ = ⊖·⊕ = ⊖.
func (v Variance) Mul(w Variance) Variance { return v == w }

// String renders ⊕ or ⊖.
func (v Variance) String() string {
	if v == Covariant {
		return "⊕"
	}
	return "⊖"
}

// Kind discriminates the label constructors of Table 1.
type Kind uint8

const (
	// KIn is .in_L: function input at location L (contravariant).
	KIn Kind = iota
	// KOut is .out_L: function output at location L (covariant).
	KOut
	// KLoad is .load: readable pointer (covariant).
	KLoad
	// KStore is .store: writable pointer (contravariant).
	KStore
	// KField is .σN@k: an N-bit field at byte offset k (covariant).
	KField
)

// Label is a single element of Σ. The zero value is not a valid label;
// use the constructors below. A Label holds only integers — the
// location name of .in/.out is interned into the package's location
// table — so it compares and hashes as a small tuple of ints.
type Label struct {
	kind Kind
	// loc is the interned id of the parameter/return location name for
	// KIn/KOut (e.g. "stack0", "eax"); see internLoc.
	loc uint32
	// bits and off carry the σN@k payload for KField.
	bits int
	off  int
}

// locTable interns location names. Ids are process-local and never
// leave the process: the wire form and every ordering use the name.
// The read path takes no lock: name → id probes an immutable map
// snapshot, id → name indexes an append-only slice whose header is
// republished after each first-time intern. Misses fall back to the
// authoritative map under mu, and the snapshot is rebuilt once the
// misses since the last rebuild reach the table size, so rebuild
// copying stays amortized O(1) per intern.
var locTable struct {
	read  atomic.Pointer[map[string]uint32]
	names atomic.Pointer[[]string]

	mu     sync.Mutex
	auth   map[string]uint32 // every name, guarded by mu
	misses int               // locked lookups since the last rebuild, guarded by mu
}

func init() {
	names := []string{""}
	locTable.names.Store(&names)
	locTable.auth = map[string]uint32{"": 0}
	snap := map[string]uint32{"": 0}
	locTable.read.Store(&snap)
}

// internLoc returns the id of loc, assigning the next one on first use.
func internLoc(loc string) uint32 {
	if id, ok := (*locTable.read.Load())[loc]; ok {
		return id
	}
	return internLocSlow(loc)
}

// internLocBytes is internLoc for a byte slice; a name already in the
// snapshot is found without allocating a string.
func internLocBytes(b []byte) uint32 {
	if id, ok := (*locTable.read.Load())[string(b)]; ok {
		return id
	}
	return internLocSlow(string(b))
}

func internLocSlow(loc string) uint32 {
	locTable.mu.Lock()
	defer locTable.mu.Unlock()
	id, ok := locTable.auth[loc]
	if !ok {
		names := *locTable.names.Load()
		id = uint32(len(names))
		names = append(names, loc)
		locTable.names.Store(&names)
		locTable.auth[loc] = id
	}
	if locTable.misses++; locTable.misses >= len(locTable.auth) {
		snap := make(map[string]uint32, len(locTable.auth))
		for k, v := range locTable.auth {
			snap[k] = v
		}
		locTable.read.Store(&snap)
		locTable.misses = 0
	}
	return id
}

// locName resolves an interned location id.
func locName(id uint32) string { return (*locTable.names.Load())[id] }

// In returns the input-capability label .in_loc.
func In(loc string) Label { return Label{kind: KIn, loc: internLoc(loc)} }

// Out returns the output-capability label .out_loc.
func Out(loc string) Label { return Label{kind: KOut, loc: internLoc(loc)} }

// Load is the readable-pointer label .load.
func Load() Label { return Label{kind: KLoad} }

// Store is the writable-pointer label .store.
func Store() Label { return Label{kind: KStore} }

// Field returns the label .σbits@off: a bits-bit field at byte offset off.
func Field(bits, off int) Label { return Label{kind: KField, bits: bits, off: off} }

// Kind reports the label constructor.
func (l Label) Kind() Kind { return l.kind }

// Loc reports the location name of an in/out label ("" otherwise).
func (l Label) Loc() string { return locName(l.loc) }

// Bits reports the field width of a σN@k label (0 otherwise).
func (l Label) Bits() int { return l.bits }

// Offset reports the byte offset of a σN@k label (0 otherwise).
func (l Label) Offset() int { return l.off }

// Variance reports ⟨l⟩ per Table 1: .in and .store are contravariant,
// .out, .load and .σN@k are covariant.
func (l Label) Variance() Variance {
	switch l.kind {
	case KIn, KStore:
		return Contravariant
	default:
		return Covariant
	}
}

// IsPointerAccess reports whether l is .load or .store.
func (l Label) IsPointerAccess() bool { return l.kind == KLoad || l.kind == KStore }

// PointerDual maps .load↔.store and returns any other label unchanged.
// It implements the symmetrization used by the S-POINTER rule.
func (l Label) PointerDual() Label {
	switch l.kind {
	case KLoad:
		return Store()
	case KStore:
		return Load()
	default:
		return l
	}
}

// String renders the label in the paper's notation, e.g. "in_stack0",
// "out_eax", "load", "store", "σ32@4".
func (l Label) String() string {
	switch l.kind {
	case KIn:
		return "in_" + locName(l.loc)
	case KOut:
		return "out_" + locName(l.loc)
	case KLoad:
		return "load"
	case KStore:
		return "store"
	case KField:
		return "σ" + strconv.Itoa(l.bits) + "@" + strconv.Itoa(l.off)
	default:
		return fmt.Sprintf("label(%d)", l.kind)
	}
}

// Parse parses a single label as printed by String. It accepts the ASCII
// alias "s32@4" alongside "σ32@4".
func Parse(s string) (Label, error) {
	switch {
	case strings.HasPrefix(s, "in_"):
		return In(s[len("in_"):]), nil
	case strings.HasPrefix(s, "out_"):
		return Out(s[len("out_"):]), nil
	case s == "load":
		return Load(), nil
	case s == "store":
		return Store(), nil
	case strings.HasPrefix(s, "σ"), strings.HasPrefix(s, "s"):
		body := strings.TrimPrefix(strings.TrimPrefix(s, "σ"), "s")
		at := strings.IndexByte(body, '@')
		if at < 0 {
			return Label{}, fmt.Errorf("label: malformed field label %q", s)
		}
		bits, err := strconv.Atoi(body[:at])
		if err != nil {
			return Label{}, fmt.Errorf("label: bad width in %q: %v", s, err)
		}
		off, err := strconv.Atoi(body[at+1:])
		if err != nil {
			return Label{}, fmt.Errorf("label: bad offset in %q: %v", s, err)
		}
		return Field(bits, off), nil
	default:
		return Label{}, fmt.Errorf("label: unknown label %q", s)
	}
}

// Compare imposes a deterministic total order on labels, used to keep
// printed constraint sets and sketches stable. In/out labels order by
// location name, never by interned id, so the order does not depend on
// which names a process happened to intern first.
func Compare(a, b Label) int {
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	switch a.kind {
	case KIn, KOut:
		if a.loc == b.loc {
			return 0
		}
		return strings.Compare(locName(a.loc), locName(b.loc))
	case KField:
		if a.off != b.off {
			return a.off - b.off
		}
		return a.bits - b.bits
	default:
		return 0
	}
}

// Word is a (possibly empty) word over Σ.
type Word []Label

// Variance reports ⟨w⟩, the product of the member variances.
func (w Word) Variance() Variance {
	v := Covariant
	for _, l := range w {
		v = v.Mul(l.Variance())
	}
	return v
}

// Append returns w·l as a fresh word (w is not mutated).
func (w Word) Append(l Label) Word {
	out := make(Word, len(w)+1)
	copy(out, w)
	out[len(w)] = l
	return out
}

// Concat returns w·u as a fresh word.
func (w Word) Concat(u Word) Word {
	out := make(Word, 0, len(w)+len(u))
	out = append(out, w...)
	out = append(out, u...)
	return out
}

// Equal reports label-wise equality.
func (w Word) Equal(u Word) bool {
	if len(w) != len(u) {
		return false
	}
	for i := range w {
		if w[i] != u[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether p is a prefix of w.
func (w Word) HasPrefix(p Word) bool {
	if len(p) > len(w) {
		return false
	}
	return w[:len(p)].Equal(p)
}

// String joins the labels with dots: "load.σ32@4".
func (w Word) String() string {
	parts := make([]string, len(w))
	for i, l := range w {
		parts[i] = l.String()
	}
	return strings.Join(parts, ".")
}

// ParseWord parses a dot-separated label word; the empty string is ε.
func ParseWord(s string) (Word, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ".")
	w := make(Word, 0, len(parts))
	for _, p := range parts {
		l, err := Parse(p)
		if err != nil {
			return nil, err
		}
		w = append(w, l)
	}
	return w, nil
}

// SortLabels sorts a label slice with Compare.
func SortLabels(ls []Label) {
	sort.Slice(ls, func(i, j int) bool { return Compare(ls[i], ls[j]) < 0 })
}
