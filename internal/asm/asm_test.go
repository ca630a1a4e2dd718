package asm

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
)

// TestParseBasics exercises the core syntax.
func TestParseBasics(t *testing.T) {
	p, err := Parse(`
; a comment
proc f
start:
    mov eax, [ebp+8]
    movb cl, [eax]      ; parse error expected? no: cl is not a register
endproc
`)
	if err == nil {
		t.Errorf("cl should not parse as a register, got %v", p)
	}

	p, err = Parse(`
proc f
top:
    mov eax, [ebp+8]
    mov [esp-4], eax
    add eax, 0x10
    push 42
    pop ecx
    lea edx, [esp+12]
    test eax, eax
    jnz top
    call g
    jmp g
    ret
endproc

proc g
    xor eax, eax
    ret
endproc
`)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := p.Proc("f")
	if !ok {
		t.Fatal("missing f")
	}
	if len(f.Insts) != 11 {
		t.Errorf("f has %d instructions", len(f.Insts))
	}
	if f.Labels["top"] != 0 {
		t.Errorf("label top at %d", f.Labels["top"])
	}
	if got := f.Insts[2]; got.Op != ADD || got.Src.Imm != 16 {
		t.Errorf("hex immediate: %v", got)
	}
	if p.NumInsts() != 13 {
		t.Errorf("NumInsts = %d", p.NumInsts())
	}
}

// TestParseErrors enumerates rejected inputs.
func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"mov eax, ebx", // outside proc
		"proc f\nret",  // missing endproc
		"proc f\nret\nendproc\nproc f\nret\nendproc", // duplicate
		"proc f\njz nowhere\nret\nendproc",           // unknown label
		"proc f\nmov [eax], [ebx]\nret\nendproc",     // mem-to-mem
		"proc f\nlea eax, ebx\nret\nendproc",         // lea needs memory
		"proc f\nbogus eax, 1\nret\nendproc",         // unknown mnemonic
		"proc f\nendproc",                            // no instructions
		"proc f\nL:\nendproc",                        // only a label
		"proc f\nmov eax, 0x100000000\nret\nendproc", // immediate above 2^32-1
		"proc f\nmov eax, 99999999999\nret\nendproc", // immediate above 2^32-1
		"proc f\npush -2147483649\nret\nendproc",     // immediate below -2^31
		"proc f\nL:\nnop\nL:\njz L\nret\nendproc",    // duplicate label
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
	// The new rejections are anchored to their line.
	for _, c := range []struct {
		src  string
		want string
	}{
		{"proc f\nmov eax, 0x100000000\nret\nendproc", `asm:2: immediate "0x100000000" out of 32-bit range`},
		{"proc f\nL:\nnop\nL:\njz L\nret\nendproc", `asm:4: duplicate label "L" in proc "f"`},
	} {
		var pe *ParseError
		if _, err := Parse(c.src); !errors.As(err, &pe) || pe.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
	// Unsigned 32-bit literals wrap to their int32 bit pattern.
	p, err := Parse("proc f\nmov eax, 0xffffffff\nmov ebx, -0x80000000\nret\nendproc")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Procs[0].Insts; got[0].Src.Imm != -1 || got[1].Src.Imm != math.MinInt32 {
		t.Errorf("32-bit bounds parsed to %v, %v", got[0], got[1])
	}
}

// TestOperandRendering: String forms round trip through the parser.
func TestOperandRendering(t *testing.T) {
	src := `
proc f
    mov eax, [ebp-12]
    movw [esi+2], ecx
    sub esp, 8
    jle done
done:
    leave
    ret
endproc
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, in := range p.Procs[0].Insts {
		lines = append(lines, in.String())
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{"[ebp-12]", "movw [esi+2], ecx", "jle done", "leave"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering missing %q in:\n%s", want, text)
		}
	}
	// Reparse the rendered body (labels re-inserted at their indices).
	var withLabels []string
	for i, in := range p.Procs[0].Insts {
		var names []string
		for name, idx := range p.Procs[0].Labels {
			if idx == i {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			withLabels = append(withLabels, name+":")
		}
		withLabels = append(withLabels, in.String())
	}
	if _, err := Parse("proc f\n" + strings.Join(withLabels, "\n") + "\nendproc\n"); err != nil {
		t.Errorf("rendered instructions do not reparse: %v", err)
	}
}

// TestConditionalZoo: every conditional mnemonic parses to JCC.
func TestConditionalZoo(t *testing.T) {
	for cond := range refCondNames {
		src := "proc f\nl:\n    " + cond + " l\n    ret\nendproc\n"
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		if p.Procs[0].Insts[0].Op != JCC || p.Procs[0].Insts[0].Cond != cond {
			t.Errorf("%s parsed to %v", cond, p.Procs[0].Insts[0])
		}
	}
}
