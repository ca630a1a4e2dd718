// Package summaries provides pre-computed type schemes for externally
// linked functions (§4.2: "Pre-computed type schemes for externally
// linked functions may be inserted at this stage"), playing the role of
// the paper's libc/Windows API models and the semantic-tag seeds of
// §3.5 (e.g. the #signal-number tag on signal()'s int parameter).
//
// A summary's constraint set is written over the function's own name as
// the base type variable; the constraint generator instantiates it with
// a fresh callsite tag (Example A.4), which is what makes malloc-like
// functions behave let-polymorphically.
package summaries

import (
	"reflect"

	"retypd/internal/constraints"
)

// Summary describes one external function.
type Summary struct {
	// Name is the linked symbol.
	Name string
	// FormalIns lists formal-in location names in order ("stack0", …).
	FormalIns []string
	// HasOut reports whether the function returns a value in eax.
	HasOut bool
	// Constraints is the summary scheme body over base variable Name.
	// It may be empty: malloc's return and free's parameter are fully
	// polymorphic (§2.2).
	Constraints *constraints.Set
}

// Table maps symbol names to summaries.
type Table map[string]*Summary

func mk(name string, formals []string, hasOut bool, text string) *Summary {
	return &Summary{
		Name:        name,
		FormalIns:   formals,
		HasOut:      hasOut,
		Constraints: constraints.MustParseSet(text),
	}
}

// defaultTable memoizes the stock table: summaries are read-only by
// contract, every Infer call with nil summaries resolves to this one
// value, and pointer-stable summaries are what lets an engine session
// recognize "same summaries" across runs without deep comparison.
var defaultTable = buildDefault()

// Default returns the stock summary table used by the reproduction. It
// covers the functions the paper's examples rely on (close, malloc,
// free, memcpy, fopen/fclose, signal) plus enough of libc for the
// synthetic corpus. The returned table is shared — treat it as
// read-only; to customize, copy it into a fresh Table first.
func Default() Table { return defaultTable }

// IsDefault reports whether t is the shared stock table itself (not an
// equal copy), so callers may memoize derived values such as digests.
func IsDefault(t Table) bool {
	return reflect.ValueOf(t).UnsafePointer() == reflect.ValueOf(defaultTable).UnsafePointer()
}

func buildDefault() Table {
	t := Table{}
	add := func(s *Summary) { t[s.Name] = s }

	// Figure 2/20: close(int fd) — the parameter is an int carrying the
	// #FileDescriptor tag; the result is an int tagged #SuccessZ.
	add(mk("close", []string{"stack0"}, true, `
		close.in_stack0 <= int
		close.in_stack0 <= #FileDescriptor
		int <= close.out_eax
		#SuccessZ <= close.out_eax
	`))

	// §2.2: malloc : ∀τ. size_t → τ* — the return's capabilities are
	// unconstrained and fresh at every callsite; the ptr lower bound
	// records only that it is an address.
	add(mk("malloc", []string{"stack0"}, true, `
		malloc.in_stack0 <= size_t
		ptr <= malloc.out_eax
	`))

	// free : ∀τ. τ* → void.
	add(mk("free", []string{"stack0"}, false, ``))

	// §2.2: memcpy : ∀α,β. (β ⊑ α) ⇒ (α* × β* × size_t) → α*.
	// The byte flow from source loads to destination stores encodes
	// β ⊑ α; the destination pointer is returned.
	add(mk("memcpy", []string{"stack0", "stack4", "stack8"}, true, `
		memcpy.in_stack4.load.σ8@0 <= memcpy.in_stack0.store.σ8@0
		memcpy.in_stack8 <= size_t
		memcpy.in_stack0 <= memcpy.out_eax
	`))

	add(mk("fopen", []string{"stack0", "stack4"}, true, `
		fopen.in_stack0 <= str
		fopen.in_stack4 <= str
		FILE <= fopen.out_eax.load.σ32@0
	`))
	add(mk("fclose", []string{"stack0"}, true, `
		fclose.in_stack0.load.σ32@0 <= FILE
		int <= fclose.out_eax
	`))
	add(mk("fread", []string{"stack0", "stack4", "stack8", "stack12"}, true, `
		fread.in_stack4 <= size_t
		fread.in_stack8 <= size_t
		fread.in_stack12.load.σ32@0 <= FILE
		size_t <= fread.out_eax
	`))

	// signal(int signum, handler) with the #signal-number tag (§E).
	add(mk("signal", []string{"stack0", "stack4"}, true, `
		signal.in_stack0 <= int
		signal.in_stack0 <= #signal-number
		signal.in_stack4 <= code
	`))

	add(mk("open", []string{"stack0", "stack4"}, true, `
		open.in_stack0 <= str
		open.in_stack4 <= int
		int <= open.out_eax
		#FileDescriptor <= open.out_eax
	`))
	add(mk("read", []string{"stack0", "stack4", "stack8"}, true, `
		read.in_stack0 <= int
		read.in_stack0 <= #FileDescriptor
		read.in_stack8 <= size_t
		ssize_t <= read.out_eax
	`))
	add(mk("write", []string{"stack0", "stack4", "stack8"}, true, `
		write.in_stack0 <= int
		write.in_stack0 <= #FileDescriptor
		write.in_stack8 <= size_t
		ssize_t <= write.out_eax
	`))

	add(mk("strlen", []string{"stack0"}, true, `
		strlen.in_stack0 <= str
		strlen.in_stack0.load.σ8@0 <= char
		size_t <= strlen.out_eax
	`))
	add(mk("strcpy", []string{"stack0", "stack4"}, true, `
		strcpy.in_stack4 <= str
		strcpy.in_stack4.load.σ8@0 <= strcpy.in_stack0.store.σ8@0
		strcpy.in_stack0 <= strcpy.out_eax
	`))
	add(mk("strcmp", []string{"stack0", "stack4"}, true, `
		strcmp.in_stack0 <= str
		strcmp.in_stack4 <= str
		int <= strcmp.out_eax
	`))
	add(mk("atoi", []string{"stack0"}, true, `
		atoi.in_stack0 <= str
		int <= atoi.out_eax
	`))

	add(mk("time", []string{"stack0"}, true, `
		time_t <= time.out_eax
	`))
	add(mk("abs", []string{"stack0"}, true, `
		abs.in_stack0 <= int
		int <= abs.out_eax
	`))
	add(mk("rand", nil, true, `
		int <= rand.out_eax
	`))
	add(mk("srand", []string{"stack0"}, false, `
		srand.in_stack0 <= uint
	`))
	add(mk("putchar", []string{"stack0"}, true, `
		putchar.in_stack0 <= int
		int <= putchar.out_eax
	`))
	add(mk("puts", []string{"stack0"}, true, `
		puts.in_stack0 <= str
		int <= puts.out_eax
	`))
	add(mk("isdigit", []string{"stack0"}, true, `
		isdigit.in_stack0 <= int
		int <= isdigit.out_eax
	`))
	add(mk("exit", []string{"stack0"}, false, `
		exit.in_stack0 <= int
	`))
	add(mk("abort", nil, false, ``))
	add(mk("getpid", nil, true, `
		pid_t <= getpid.out_eax
	`))

	// Floating point enters only through known functions (§A.5.1).
	add(mk("sqrtf", []string{"stack0"}, true, `
		sqrtf.in_stack0 <= float
		float <= sqrtf.out_eax
	`))
	add(mk("fabsf", []string{"stack0"}, true, `
		fabsf.in_stack0 <= float
		float <= fabsf.out_eax
	`))

	// Windows API models for the ad-hoc hierarchy of §2.8.
	add(mk("GetStockObject", []string{"stack0"}, true, `
		GetStockObject.in_stack0 <= int
		HGDI <= GetStockObject.out_eax
	`))
	add(mk("SelectObject", []string{"stack0", "stack4"}, true, `
		SelectObject.in_stack0 <= HANDLE
		SelectObject.in_stack4 <= HGDI
		HGDI <= SelectObject.out_eax
	`))
	add(mk("SendMessage", []string{"stack0", "stack4", "stack8", "stack12"}, true, `
		SendMessage.in_stack0 <= HWND
		SendMessage.in_stack4 <= uint
		SendMessage.in_stack8 <= WPARAM
		SendMessage.in_stack12 <= LPARAM
		int <= SendMessage.out_eax
	`))

	return t
}
