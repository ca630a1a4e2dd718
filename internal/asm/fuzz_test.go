package asm

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"retypd/internal/corpus"
	"retypd/internal/fuzzcorpus"
)

// TestWriteFuzzCorpus regenerates the checked-in seed corpus; set
// RETYPD_WRITE_FUZZ_CORPUS=1 after changing the source language.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("RETYPD_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set RETYPD_WRITE_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	if err := fuzzcorpus.Write("testdata/fuzz/FuzzParseAsm", fuzzAsmSeeds()); err != nil {
		t.Fatal(err)
	}
}

// fuzzAsmSeeds covers the grammar's surface — every mnemonic family,
// labels, comments, hex literals, memory operands — plus the error
// paths (nested proc, dangling proc, unknown label, malformed operand,
// empty proc)
// so the fuzzer starts from both sides of the accept/reject boundary.
func fuzzAsmSeeds() [][]byte {
	srcs := []string{
		"proc f\n  mov eax, [ebp+8]\n  ret\nendproc\n",
		"; comment\nproc g\nloop:\n  add eax, 1\n  jnz loop\n  call f\n  ret\nendproc\n",
		"proc h\n  mov ebx, 0x10\n  cmp eax, ebx\n  jz done\n  mov [esp+4], eax\ndone:\n  leave\n  ret\nendproc\n",
		"proc p\n  push eax\n  pop ebx\n  nop\n  ret\nendproc\n",
		"proc a\n  ret\nendproc\nproc b\n  call a\n  ret\nendproc\n",
		// Error paths.
		"proc f\nproc g\n",
		"proc f\n  jz nowhere\n  ret\nendproc\n",
		"mov eax, ebx\n",
		"proc f\n  mov\n  ret\nendproc\n",
		"proc f\n  mov eax, [ebp+\n  ret\nendproc\n",
		"proc f\n  ret\n",
		"endproc\n",
		"proc f\nendproc\n",
	}
	out := make([][]byte, len(srcs))
	for i, s := range srcs {
		out[i] = []byte(s)
	}
	return out
}

// FuzzParseAsm: arbitrary source must either parse or fail with a
// structured *ParseError — never panic, never return both nil. The
// parser is a trust boundary for the future server, so every rejection
// must be a typed, line-anchored error a caller can render. Accepted
// programs must be internally consistent (every JCC target resolved,
// every instruction renderable and individually re-parseable).
func FuzzParseAsm(f *testing.F) {
	for _, seed := range fuzzAsmSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := Parse(string(data))
		if err != nil {
			if prog != nil {
				t.Fatal("Parse returned both a program and an error")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse error is not a *ParseError: %T %v", err, err)
			}
			if pe.Line < 0 || !strings.HasPrefix(pe.Error(), "asm:") {
				t.Fatalf("malformed ParseError: line=%d text=%q", pe.Line, pe.Error())
			}
			return
		}
		if prog == nil {
			t.Fatal("Parse returned neither a program nor an error")
		}
		for _, p := range prog.Procs {
			for _, in := range p.Insts {
				if in.Op == JCC {
					if _, ok := p.Labels[in.Target]; !ok {
						t.Fatalf("accepted program has unresolved label %q in %s", in.Target, p.Name)
					}
					continue // a lone jcc does not re-parse without its label
				}
				if s := in.String(); s != "" && in.Op != CALL {
					if _, err := parseInst(s); err != nil {
						t.Fatalf("accepted instruction %q does not re-parse: %v", s, err)
					}
				}
			}
		}
	})
}

func printOrNil(p *Program) string {
	if p == nil {
		return "<nil>"
	}
	return printProgram(p)
}

// refEdgeSeeds are the corners where a byte scanner most easily drifts
// from the line-splitting reference: Unicode and control white space
// (trimming and field splitting honour unicode.IsSpace, the mnemonic
// split only space and tab, operand bodies drop only spaces), invalid
// UTF-8, strconv base-0 literal forms, the 32-bit immediate range,
// trailing fields the grammar ignores, odd labels and operand counts.
var refEdgeSeeds = []string{
	"proc\u00a0f\n\u2003mov eax,\u00a0ebx\nret\u0085\nendproc\n",
	"proc f\n  nop\u00a0x\n  mov\u00a0eax, 1\n  ret\nendproc\n",
	"proc f\u3000g\n  ret\nendproc\n",
	"proc\tf\n\tmov\teax,\t[ebp+8]\n\tret\nendproc\n",
	"proc f\n  mov\veax, 1\n  ret\nendproc\n",
	"proc f\n  mov eax, [ebp\t+8]\n  ret\nendproc\n",
	"proc f\n  mov eax, [\tebp+8]\n  ret\nendproc\n",
	"proc f\n  mov eax, [ebp+-8]\n  mov eax, [ebp--8]\n  mov eax, [ ebp - 0x10 ]\n  ret\nendproc\n",
	"proc f\n  mov eax, [ebp-8+4]\n  ret\nendproc\n",
	"proc f\n  mov eax, [ebp+0x80000000]\n  ret\nendproc\n",
	"proc f\n  mov eax, [ebp--2147483648]\n  ret\nendproc\n",
	"proc f\n  mov eax, []\n  ret\nendproc\n",
	"proc f\n  mov eax, [\n  ret\nendproc\n",
	"proc f\n  mov eax, 1_0\n  add eax, 0x_1f\n  sub eax, 0b101\n  xor eax, 0o17\n  and eax, 017\n  ret\nendproc\n",
	"proc f\n  mov eax, 0xffffffff\n  mov ebx, -0x80000000\n  ret\nendproc\n",
	"proc f\n  mov eax, 0x100000000\n  ret\nendproc\n",
	"proc f\n  push -2147483649\n  ret\nendproc\n",
	"proc f\n  push 99999999999\n  ret\nendproc\n",
	"proc f\n  push 9223372036854775808\n  ret\nendproc\n",
	"proc f g h\n  nop x\n  leave y, z\n  ret x y\nendproc z\n",
	"proc f\na:b:\n  jz a:b\n  ret\nendproc\n",
	"proc f\n:\n  jmp \n  ret\nendproc\n",
	"proc f\nL: nop\n  ret\nendproc\n",
	"proc f\nL:\n  nop\nL:\n  jz L\n  ret\nendproc\n",
	"proc f\nL:\n  ret\nendproc\nproc g\nL:\n  jz L\n  ret\nendproc\n",
	"proc f\n  ret\nend:\nendproc\n",
	"proc f\r\n  mov eax, 1\r\n  ret\r\nendproc\r\n",
	"proc f\n  mov eax, 1 ; trailing comment\n  ; whole-line comment\n  ret;\nendproc;x\n",
	"proc f\n  mov eax,\xff1\n  ret\nendproc\n",
	"proc \xc2\xa0f\xff\n  ret\nendproc\n",
	"proc f\n  call ,\n  ret\nendproc\n",
	"proc f\n  call a b\n  jmp a,\n  ret\nendproc\n",
	"proc f\n  push\n  pop 5\n  pop [eax]\n  ret\nendproc\n",
	"proc f\n  mov eax, ebx, ecx\n  ret\nendproc\n",
	"proc f\n  mov eax,\n  ret\nendproc\n",
	"proc f\n  mov , ebx\n  ret\nendproc\n",
	"proc f\n  jz\n  ret\nendproc\n",
	"proc f\n  jz a, b\n  ret\nendproc\n",
	"proc f\n  MOV eax, 1\n  mov EAX, 1\n  ret\nendproc\n",
	"proc\n",
	"proc f\n  jz nowhere\n  ret\nendproc\nproc g\n  bogus\nendproc\n",
	"proc f\n  jz nowhere\n  ret\nendproc\nproc g\n  ret\n",
	"endproc x\n",
	"\n\n   \n",
	"",
}

// FuzzParseMatchesReference: on arbitrary source Parse must produce
// exactly what the reference parser produces — the same Program
// (reflect.DeepEqual: procedures, instruction streams, label maps,
// index) or the same line-anchored *ParseError.
func FuzzParseMatchesReference(f *testing.F) {
	for _, seed := range fuzzAsmSeeds() {
		f.Add(seed)
	}
	for _, src := range refEdgeSeeds {
		f.Add([]byte(src))
	}
	// Small corpus programs: realistic, label-bearing inputs.
	for seed := int64(1); seed <= 16; seed++ {
		f.Add([]byte(corpus.Generate(fmt.Sprintf("ref%d", seed), seed, 20*int(seed)).Source))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := string(data)
		got, gerr := Parse(src)
		want, werr := refParse(src)
		if !reflect.DeepEqual(gerr, werr) {
			t.Fatalf("error differs on %q:\n got  %v\n want %v", src, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("program differs on %q:\n got  %s\n want %s", src, printOrNil(got), printOrNil(want))
		}
	})
}
