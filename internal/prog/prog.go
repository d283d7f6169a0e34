// Package prog contains the workload kernels, written against the asm
// builder: the astar makebound2 flood fill (Fig. 3 of the paper), the
// GAP-style graph kernels (bfs, bc, pr, cc, cc_sv, sssp, tc), SPEC-2017-like
// synthetic kernels (one per Fig. 14 misprediction category), and
// micro-kernels used by unit tests.
//
// Every workload carries a Verify function that checks the memory-resident
// results of a run against a native Go mirror of the same algorithm, so both
// functional and timing runs are end-to-end checked.
package prog

import (
	"fmt"

	"phelps/internal/emu"
	"phelps/internal/isa"
)

// CodeBase is where workload code images start.
const CodeBase = 0x10000

// DataBase is where workload data regions start.
const DataBase = 0x1000000

// Workload is a runnable benchmark: program, initialized memory, and a
// result checker.
type Workload struct {
	Name string
	Prog *isa.Program
	Mem  *emu.Memory

	// Verify checks the results in memory after the program has run to
	// completion (architectural view).
	Verify func(mem *emu.Memory) error

	// MaxInsts optionally bounds timing runs (0 = run to HALT). When a
	// bound is used the Verify function cannot be applied.
	MaxInsts uint64

	// Interesting program points for tests and reports.
	Labels map[string]uint64
}

// Alloc hands out 64-byte-aligned data regions.
type Alloc struct{ next uint64 }

// NewAlloc starts allocating at DataBase.
func NewAlloc() *Alloc { return &Alloc{next: DataBase} }

// Array reserves n elements of elemBytes each, plus a guard gap.
func (a *Alloc) Array(n, elemBytes int) uint64 {
	base := a.next
	size := uint64(n*elemBytes+63) &^ 63
	a.next += size + 64
	return base
}

// checkEq is a small verification helper.
func checkEq(what string, got, want int64) error {
	if got != want {
		return fmt.Errorf("%s: got %d, want %d", what, got, want)
	}
	return nil
}

// checkArray compares an int64 array in memory against a reference slice.
func checkArray(mem *emu.Memory, what string, base uint64, want []int64) error {
	for i, w := range want {
		if got := mem.I64(base + uint64(i)*8); got != w {
			return fmt.Errorf("%s[%d]: got %d, want %d", what, i, got, w)
		}
	}
	return nil
}
