package solver

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/lattice"
)

// rawProgSrc has a two-procedure SCC {ping, pong}, each member calling
// a polymorphic leaf outside it (ident, and its body twin ident2, which
// body dedup serves from ident).
const rawProgSrc = `
proc ident
    mov eax, [esp+4]
    ret
endproc

proc ident2
    mov eax, [esp+4]
    ret
endproc

proc ping
    mov eax, [ebp+8]
    push eax
    call ident
    add esp, 4
    mov ecx, [eax]
    push ecx
    call pong
    add esp, 4
    ret
endproc

proc pong
    mov eax, [ebp+8]
    cmp eax, 0
    jz done
    push eax
    call ident2
    add esp, 4
    push eax
    call ping
    add esp, 4
done:
    ret
endproc
`

// TestRawConstraintsSCCVisibility: RawConstraints regenerates a
// procedure's raw set with the scheme visibility F.1 had — a same-SCC
// callee is linked through its bare interface variable, an out-of-SCC
// callee's scheme is instantiated at the callsite — and derives the
// same set whatever produced the result: a plain sequential run, a
// parallel run with body dedup, or a Reanalyze replay on an engine
// restored from a saved session.
func TestRawConstraintsSCCVisibility(t *testing.T) {
	lat := lattice.Default()
	prog := asm.MustParse(rawProgSrc)

	plain := DefaultOptions()
	plain.Workers = 1
	plain.NoBodyDedup = true
	ref := Infer(prog, lat, nil, plain)

	for _, c := range []struct{ proc, peer, leaf string }{
		{"ping", "pong", "ident"},
		{"pong", "ping", "ident2"},
	} {
		raw := ref.RawConstraints(c.proc).String()
		if !regexp.MustCompile(`(^|[^\w@!])` + c.peer + `\.(in|out)_`).MatchString(raw) {
			t.Errorf("%s: same-SCC callee %s not linked through its bare interface variable:\n%s", c.proc, c.peer, raw)
		}
		if strings.Contains(raw, c.peer+"@"+c.proc+"!") {
			t.Errorf("%s: same-SCC callee %s was instantiated:\n%s", c.proc, c.peer, raw)
		}
		if !strings.Contains(raw, c.leaf+"@"+c.proc+"!") {
			t.Errorf("%s: out-of-SCC callee %s was not instantiated:\n%s", c.proc, c.leaf, raw)
		}
	}
	if ref.RawConstraints("nosuchproc") != nil {
		t.Error("RawConstraints of an unknown procedure is not nil")
	}

	par := DefaultOptions()
	par.Workers = 4
	dedup := Infer(prog, lat, nil, par)
	if dedup.BodyDedupHits == 0 {
		t.Error("body dedup never fired; ident2 should be served from ident")
	}

	eng := NewEngine(0, 0)
	eng.Infer(prog, lat, nil, DefaultOptions())
	var sess bytes.Buffer
	if err := eng.SaveSessionTo(&sess); err != nil {
		t.Fatal(err)
	}
	restored := NewEngine(0, 0)
	if _, err := restored.LoadSessionData(sess.Bytes()); err != nil {
		t.Fatal(err)
	}
	replayed := restored.Reanalyze(prog, lat, nil, DefaultOptions())
	if replayed.ReplayedProcs != uint64(len(prog.Procs)) {
		t.Errorf("replayed %d of %d procedures", replayed.ReplayedProcs, len(prog.Procs))
	}

	for _, p := range prog.Procs {
		want := ref.RawConstraints(p.Name).String()
		if got := dedup.RawConstraints(p.Name).String(); got != want {
			t.Errorf("%s: raw set differs under workers=4 with dedup:\n%s\n--- want ---\n%s", p.Name, got, want)
		}
		if got := replayed.RawConstraints(p.Name).String(); got != want {
			t.Errorf("%s: raw set differs after session restore + Reanalyze:\n%s\n--- want ---\n%s", p.Name, got, want)
		}
	}
}

// TestPersistedStateCarriesNoRawSets: neither a recorded session nor a
// published body entry carries a raw constraint set, before or after a
// save-load round trip, and the session header's legacy bit stays
// clear.
func TestPersistedStateCarriesNoRawSets(t *testing.T) {
	lat := lattice.Default()
	eng := NewEngine(0, 0)
	eng.Infer(asm.MustParse(dedupProgSrc), lat, nil, DefaultOptions())

	var sess, cache bytes.Buffer
	if err := eng.SaveSessionTo(&sess); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveCacheTo(&cache); err != nil {
		t.Fatal(err)
	}
	loaded := NewEngine(0, 0)
	if _, err := loaded.LoadSessionData(sess.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.LoadCacheData(cache.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{eng, loaded} {
		if e.sess.legacyRaw {
			t.Error("session has the legacy raw-set bit set")
		}
		for p, snap := range e.sess.procs {
			if snap.raw != nil {
				t.Errorf("session snapshot of %s carries a raw set", p)
			}
		}
		entries := 0
		for _, cls := range e.bodies.sorted() {
			if cls.entry == nil {
				continue
			}
			entries++
			if cls.entry.raw != nil {
				t.Errorf("body entry of %s carries a raw set", cls.entry.rep)
			}
		}
		if entries == 0 {
			t.Error("no body entry was published")
		}
	}
}
