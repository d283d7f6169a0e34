package core

import (
	"testing"

	"phelps/internal/cache"
	"phelps/internal/cpu"
	"phelps/internal/emu"
	"phelps/internal/isa"
)

// Predication semantics in the engine: a store guarded by a chain of
// predicate producers must commit to the speculative store cache only in
// iterations where the whole chain enables it, even though every slice
// executes unconditionally.
//
// Program (per iteration i):
//
//	t1 = a[i] ; p1 = (t1 == 0)            b1: taken means "skip"
//	t2 = b[i] ; p2 = (t2 == 0) [p1=nt]    b2: guarded by b1 not-taken
//	sd 7 -> out[i]             [p2=nt]    store: guarded by b2 not-taken
//	i++ ; loop while i < n
func predProgram(aBase, bBase, outBase uint64, n int) *HelperProgram {
	return &HelperProgram{
		Kind: InnerOnly,
		Insts: []HTInst{
			{Inst: isa.Inst{Op: isa.SLLI, Rd: isa.T0, Rs1: isa.S2, Imm: 3}, OrigPC: 0x00, QueueID: -1},
			{Inst: isa.Inst{Op: isa.ADD, Rd: isa.T1, Rs1: isa.S0, Rs2: isa.T0}, OrigPC: 0x04, QueueID: -1},
			{Inst: isa.Inst{Op: isa.LD, Rd: isa.T1, Rs1: isa.T1}, OrigPC: 0x08, QueueID: -1},
			{Inst: isa.Inst{Op: isa.PPRODUCE, CmpOp: isa.BNE, Rs1: isa.T1, Rs2: isa.X0, PredDst: 1}, OrigPC: 0x0c, QueueID: 0},
			{Inst: isa.Inst{Op: isa.ADD, Rd: isa.T2, Rs1: isa.S1, Rs2: isa.T0}, OrigPC: 0x10, QueueID: -1},
			{Inst: isa.Inst{Op: isa.LD, Rd: isa.T2, Rs1: isa.T2}, OrigPC: 0x14, QueueID: -1},
			{Inst: isa.Inst{Op: isa.PPRODUCE, CmpOp: isa.BNE, Rs1: isa.T2, Rs2: isa.X0, PredDst: 2, PredSrc: 1, PredDir: false}, OrigPC: 0x18, QueueID: 1},
			{Inst: isa.Inst{Op: isa.ADD, Rd: isa.T3, Rs1: isa.S3, Rs2: isa.T0}, OrigPC: 0x1c, QueueID: -1},
			{Inst: isa.Inst{Op: isa.SD, Rs1: isa.T3, Rs2: isa.S4, PredSrc: 2, PredDir: false}, OrigPC: 0x20, QueueID: -1},
			{Inst: isa.Inst{Op: isa.ADDI, Rd: isa.S2, Rs1: isa.S2, Imm: 1}, OrigPC: 0x24, QueueID: -1},
			{Inst: isa.Inst{Op: isa.BLT, Rs1: isa.S2, Rs2: isa.S5, Imm: -36}, OrigPC: 0x28, IsLoopBranch: true, QueueID: -1},
		},
		LiveInsMT:  []isa.Reg{isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5},
		LoopBranch: 0x28,
	}
}

func TestEnginePredicatedStoreChain(t *testing.T) {
	mem := emu.NewMemory()
	aBase, bBase, outBase := uint64(0x10000), uint64(0x20000), uint64(0x30000)
	n := 24
	// a[i] controls b1 (nonzero = taken = skip); b[i] controls b2.
	// Store fires iff a[i]==0 && b[i]==0.
	expectStore := make([]bool, n)
	for i := 0; i < n; i++ {
		a := uint64(i % 2)        // even i: a==0 -> b1 not taken
		bv := uint64((i / 2) % 2) // -> b2 varies
		mem.SetU64(aBase+uint64(i)*8, a)
		mem.SetU64(bBase+uint64(i)*8, bv)
		expectStore[i] = a == 0 && bv == 0
	}
	prog := predProgram(aBase, bBase, outBase, n)
	qs := NewQueueSet([]uint64{0x0c, 0x18}, 32)
	spec := NewSpecCache(64, 4) // big enough to retain everything
	hier := cache.New(cache.DefaultConfig())
	coreCfg := cpu.DefaultConfig()
	eng := NewEngine(prog, qs, spec, nil, mem, hier, coreCfg, coreCfg.FullLimits().Scale(1, 2),
		[]uint64{aBase, bBase, 0, outBase, 7, uint64(n)}, 0)
	lanes := &cpu.LanePool{}
	for now := uint64(0); now < 100000 && !eng.Done(); now++ {
		lanes.Reset(&coreCfg)
		eng.Cycle(now, lanes)
		for qs.Lag() > 1 {
			qs.AdvanceSpecHead()
			qs.AdvanceHead()
		}
	}
	if !eng.Done() {
		t.Fatal("engine did not finish")
	}
	for i := 0; i < n; i++ {
		v, hit := spec.ReadLoad(mem, outBase+uint64(i)*8, 8)
		if expectStore[i] {
			if !hit || v != 7 {
				t.Errorf("iteration %d: store missing (hit=%v v=%d)", i, hit, v)
			}
		} else if hit {
			t.Errorf("iteration %d: suppressed store leaked (v=%d)", i, v)
		}
	}
}

func TestEngineLoadViolationReplay(t *testing.T) {
	// A store whose address resolves late, overlapping a younger load that
	// issued speculatively: the engine must squash-replay the load and
	// still produce correct outcomes.
	mem := emu.NewMemory()
	cell := uint64(0x40000)
	slowBase := uint64(0x50000)
	mem.SetU64(slowBase, cell) // pointer fetched via a (cold, slow) load
	// Iterations alternate: store 1 to *p, then branch on cell's value.
	prog := &HelperProgram{
		Kind: InnerOnly,
		Insts: []HTInst{
			// slow pointer load: address source for the store
			{Inst: isa.Inst{Op: isa.LD, Rd: isa.T0, Rs1: isa.S0}, OrigPC: 0x00, QueueID: -1},
			{Inst: isa.Inst{Op: isa.SD, Rs1: isa.T0, Rs2: isa.S4}, OrigPC: 0x04, QueueID: -1},
			// younger load of the same cell (address known immediately)
			{Inst: isa.Inst{Op: isa.LD, Rd: isa.T1, Rs1: isa.S1}, OrigPC: 0x08, QueueID: -1},
			{Inst: isa.Inst{Op: isa.PPRODUCE, CmpOp: isa.BNE, Rs1: isa.T1, Rs2: isa.X0, PredDst: 1}, OrigPC: 0x0c, QueueID: 0},
			{Inst: isa.Inst{Op: isa.ADDI, Rd: isa.S2, Rs1: isa.S2, Imm: 1}, OrigPC: 0x10, QueueID: -1},
			{Inst: isa.Inst{Op: isa.BLT, Rs1: isa.S2, Rs2: isa.S5, Imm: -20}, OrigPC: 0x14, IsLoopBranch: true, QueueID: -1},
		},
		LiveInsMT:  []isa.Reg{isa.S0, isa.S1, isa.S2, isa.S4, isa.S5},
		LoopBranch: 0x14,
	}
	qs := NewQueueSet([]uint64{0x0c}, 32)
	spec := NewSpecCache(16, 2)
	hier := cache.New(cache.DefaultConfig())
	coreCfg := cpu.DefaultConfig()
	eng := NewEngine(prog, qs, spec, nil, mem, hier, coreCfg, coreCfg.FullLimits().Scale(1, 2),
		[]uint64{slowBase, cell, 0, 9, 20}, 0)
	lanes := &cpu.LanePool{}
	outcomes := []bool{}
	for now := uint64(0); now < 200000 && !eng.Done(); now++ {
		lanes.Reset(&coreCfg)
		eng.Cycle(now, lanes)
		for qs.Lag() > 1 {
			out, ok := qs.Consume(0x0c)
			if ok {
				outcomes = append(outcomes, out)
			}
			qs.AdvanceSpecHead()
			qs.AdvanceHead()
		}
	}
	if !eng.Done() {
		t.Fatal("engine did not finish")
	}
	// After the first iteration's store (value 9), the cell is nonzero: the
	// branch (bne) is taken from iteration 1 onward. Iteration 0 may read
	// the store forwarded (taken) — either is legal hardware behavior — but
	// all later iterations must be taken.
	for i, out := range outcomes {
		if i >= 1 && !out {
			t.Errorf("iteration %d: outcome not-taken after store committed", i)
		}
	}
	if eng.Stats.Violations == 0 {
		t.Log("note: no violations occurred (store resolved fast); forwarding path covered instead")
	}
}
