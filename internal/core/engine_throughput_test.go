package core

import (
	"testing"

	"phelps/internal/cache"
	"phelps/internal/cpu"
	"phelps/internal/emu"
	"phelps/internal/graph"
	"phelps/internal/isa"
)

// Engine throughput with cold-missing loads: the deposit rate must reflect
// memory-level parallelism, not serialized misses.
func TestEngineThroughputUnderMisses(t *testing.T) {
	mem := emu.NewMemory()
	data := uint64(0x100000)
	r := graph.NewRand(1)
	n := 20000
	for i := 0; i < n; i++ {
		mem.SetU64(data+uint64(i)*8, r.Next()%2)
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
	var now uint64
	consumed := 0
	for ; now < 2_000_000 && !eng.Done(); now++ {
		lanes.Reset(&coreCfg)
		eng.Cycle(now, lanes)
		// Consumer drains aggressively (head tracks tail closely).
		for qs.Lag() > 1 {
			qs.Consume(0x24)
			qs.AdvanceSpecHead()
			qs.AdvanceHead()
			consumed++
		}
	}
	rate := float64(consumed) / float64(now)
	t.Logf("consumed=%d cycles=%d rate=%.3f iters/cycle stats=%+v", consumed, now, rate, eng.Stats)
	if rate < 0.2 {
		t.Errorf("engine deposit rate %.3f iters/cycle: no MLP", rate)
	}
}
