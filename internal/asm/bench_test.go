package asm

import (
	"fmt"
	"testing"

	"retypd/internal/corpus"
)

var parseSink *Program

// BenchmarkParse times Parse on corpus programs of the sizes the
// perfbench workloads parse per op (4k-inst fleet binaries, 8k-inst
// edit-reanalyze programs). Run with -benchmem.
func BenchmarkParse(b *testing.B) {
	for _, n := range []int{4000, 8000} {
		src := corpus.Generate("parse", 1, n).Source
		b.Run(fmt.Sprintf("insts=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				p, err := Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				parseSink = p
			}
		})
	}
}
