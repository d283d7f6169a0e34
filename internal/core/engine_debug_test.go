package core

import (
	"testing"

	"phelps/internal/cache"
	"phelps/internal/cpu"
	"phelps/internal/emu"
	"phelps/internal/graph"
	"phelps/internal/isa"
)

// Hand-built helper program equal to what construction produces for
// prog.DelinquentLoop: slli, add, ld, pproduce(beq), addi, blt.
func TestEngineDepositsCorrectOutcomes(t *testing.T) {
	mem := emu.NewMemory()
	data := uint64(0x100000)
	r := graph.NewRand(1)
	n := 200
	vals := make([]uint64, n)
	for i := 0; i < n; i++ {
		vals[i] = r.Next() % 2
		mem.SetU64(data+uint64(i)*8, vals[i])
	}
	prog := &HelperProgram{
		Kind: InnerOnly,
		Insts: []HTInst{
			{Inst: isa.Inst{Op: isa.SLLI, Rd: isa.T0, Rs1: isa.S2, Imm: 3}, OrigPC: 0x18, QueueID: -1},
			{Inst: isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs1: isa.S0, Rs2: isa.T0}, OrigPC: 0x1c, QueueID: -1},
			{Inst: isa.Inst{Op: isa.LD, Rd: isa.T1, Rs1: isa.T0}, OrigPC: 0x20, QueueID: -1},
			{Inst: isa.Inst{Op: isa.PPRODUCE, CmpOp: isa.BEQ, Rs1: isa.T1, Rs2: isa.X0, PredDst: 1}, OrigPC: 0x24, QueueID: 0},
			{Inst: isa.Inst{Op: isa.ADDI, Rd: isa.S2, Rs1: isa.S2, Imm: 1}, OrigPC: 0x50, QueueID: -1},
			{Inst: isa.Inst{Op: isa.BLT, Rs1: isa.S2, Rs2: isa.S1, Imm: -60}, OrigPC: 0x54, IsLoopBranch: true, QueueID: -1},
		},
		LiveInsMT:  []isa.Reg{isa.S0, isa.S1, isa.S2},
		LoopBranch: 0x54,
	}
	qs := NewQueueSet([]uint64{0x24}, 32)
	spec := NewSpecCache(16, 2)
	hier := cache.New(cache.DefaultConfig())
	coreCfg := cpu.DefaultConfig()
	lim := coreCfg.FullLimits().Scale(1, 2)
	eng := NewEngine(prog, qs, spec, nil, mem, hier, coreCfg, lim,
		[]uint64{data, uint64(n), 0}, 0)
	lanes := &cpu.LanePool{}
	consumed := 0
	for now := uint64(0); now < 100000 && !eng.Done(); now++ {
		lanes.Reset(&coreCfg)
		eng.Cycle(now, lanes)
		// Main-thread-like consumption to keep the queue draining.
		for qs.Lag() > 2 {
			out, ok := qs.Consume(0x24)
			if !ok {
				break
			}
			wantTaken := vals[consumed] == 0
			if out != wantTaken {
				t.Fatalf("iteration %d: deposit %v, want %v", consumed, out, wantTaken)
			}
			consumed++
			qs.AdvanceSpecHead()
			qs.AdvanceHead()
		}
	}
	t.Logf("consumed %d iterations; done=%v stats=%+v", consumed, eng.Done(), eng.Stats)
	if consumed < n-2 {
		t.Errorf("only %d of %d iterations produced", consumed, n)
	}
}
