package cpu

import (
	"testing"

	"phelps/internal/asm"
	"phelps/internal/bpred"
	"phelps/internal/cache"
	"phelps/internal/emu"
	"phelps/internal/graph"
	"phelps/internal/isa"
)

// run drives a program through the core until HALT retires, returning stats.
func run(t *testing.T, cfg Config, prog *isa.Program, mem *emu.Memory, pred bpred.Predictor) *Core {
	t.Helper()
	hier := cache.New(cache.DefaultConfig())
	e := emu.New(prog, mem)
	hooks := Hooks{}
	if pred != nil {
		hooks.Predict = func(d *emu.DynInst) Prediction {
			return Prediction{Taken: pred.PredictAndTrain(d.PC, d.Taken)}
		}
	}
	core := NewCore(cfg, mem, hier, e.StepInto, hooks)
	lanes := &LanePool{}
	for now := uint64(0); !core.Halted(); now++ {
		if now > 200_000_000 {
			t.Fatal("simulation did not terminate")
		}
		lanes.Reset(&cfg)
		core.Cycle(now, lanes)
	}
	return core
}

func TestIndependentALUHighIPC(t *testing.T) {
	b := asm.New(0)
	// 4000 independent single-cycle ops across 8 registers: IPC should
	// approach the simple-ALU limit (4/cycle).
	for i := 0; i < 4000; i++ {
		b.Addi(isa.Reg(5+i%8), isa.X0, int64(i%100))
	}
	b.Halt()
	core := run(t, DefaultConfig(), b.MustBuild(), emu.NewMemory(), nil)
	ipc := core.Stats.IPC()
	if ipc < 3.0 {
		t.Errorf("independent ALU IPC = %.2f, want near 4", ipc)
	}
}

func TestDependentChainIPCNearOne(t *testing.T) {
	b := asm.New(0)
	b.Li(isa.T0, 0)
	for i := 0; i < 3000; i++ {
		b.Addi(isa.T0, isa.T0, 1) // serial dependence chain
	}
	b.Halt()
	core := run(t, DefaultConfig(), b.MustBuild(), emu.NewMemory(), nil)
	ipc := core.Stats.IPC()
	if ipc < 0.8 || ipc > 1.3 {
		t.Errorf("dependent chain IPC = %.2f, want ~1", ipc)
	}
	if got := int64(core.ArchReg(isa.T0)); got != 3000 {
		t.Errorf("final T0 = %d, want 3000", got)
	}
}

func TestPredictableLoopFast(t *testing.T) {
	b := asm.New(0)
	b.Li(isa.T0, 0)
	b.Li(isa.T1, 2000)
	b.Label("loop")
	b.Addi(isa.T0, isa.T0, 1)
	b.Addi(isa.T2, isa.T0, 5)
	b.Addi(isa.T3, isa.T0, 7)
	b.Blt(isa.T0, isa.T1, "loop")
	b.Halt()
	core := run(t, DefaultConfig(), b.MustBuild(), emu.NewMemory(), bpred.NewTAGE(bpred.DefaultTAGEConfig()))
	if mpki := core.Stats.MPKI(); mpki > 5 {
		t.Errorf("predictable loop MPKI = %.1f", mpki)
	}
	if ipc := core.Stats.IPC(); ipc < 1.0 {
		t.Errorf("predictable loop IPC = %.2f", ipc)
	}
}

// randomBranchProgram builds a loop whose branch depends on pre-generated
// random data: delinquent by construction.
func randomBranchProgram(n int) (*isa.Program, *emu.Memory) {
	mem := emu.NewMemory()
	r := graph.NewRand(5)
	dataBase := uint64(0x100000)
	for i := 0; i < n; i++ {
		mem.SetU64(dataBase+uint64(i)*8, r.Next()%2)
	}
	b := asm.New(0)
	b.Li(isa.S0, int64(dataBase)) // data pointer
	b.Li(isa.S1, int64(n))        // count
	b.Li(isa.S2, 0)               // i
	b.Li(isa.S3, 0)               // accum
	b.Label("loop")
	b.Slli(isa.T0, isa.S2, 3)
	b.Add(isa.T0, isa.S0, isa.T0)
	b.Ld(isa.T1, isa.T0, 0)
	b.Beq(isa.T1, isa.X0, "skip") // random: delinquent
	b.Addi(isa.S3, isa.S3, 1)
	b.Label("skip")
	b.Addi(isa.S2, isa.S2, 1)
	b.Blt(isa.S2, isa.S1, "loop")
	b.Halt()
	return b.MustBuild(), mem
}

func TestRandomBranchIsExpensive(t *testing.T) {
	prog, mem := randomBranchProgram(4000)
	tage := run(t, DefaultConfig(), prog, mem, bpred.NewTAGE(bpred.DefaultTAGEConfig()))
	prog2, mem2 := randomBranchProgram(4000)
	perfect := run(t, DefaultConfig(), prog2, mem2, bpred.Perfect{})

	if tage.Stats.MPKI() < 30 {
		t.Errorf("random branch MPKI = %.1f, expected delinquent (>30)", tage.Stats.MPKI())
	}
	if perfect.Stats.Mispredicts != 0 {
		t.Errorf("perfect predictor had %d mispredicts", perfect.Stats.Mispredicts)
	}
	speedup := float64(tage.Stats.Cycles) / float64(perfect.Stats.Cycles)
	if speedup < 1.5 {
		t.Errorf("perfect BP speedup on delinquent loop = %.2fx, want > 1.5x", speedup)
	}
}

func TestMispredictPenaltyScalesWithDepth(t *testing.T) {
	cyclesAt := func(depth int) uint64 {
		prog, mem := randomBranchProgram(3000)
		cfg := DefaultConfig()
		cfg.PipelineDepth = depth
		core := run(t, cfg, prog, mem, bpred.NewBimodal(12))
		return core.Stats.Cycles
	}
	c11, c19 := cyclesAt(11), cyclesAt(19)
	if c19 <= c11 {
		t.Errorf("deeper pipeline not slower on delinquent code: 11-stage %d vs 19-stage %d", c11, c19)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	b := asm.New(0)
	b.Li(isa.S0, 0x4000)
	b.Li(isa.T0, 0)
	b.Li(isa.T1, 1000)
	b.Label("loop")
	b.Sd(isa.T0, isa.S0, 0)
	b.Ld(isa.T2, isa.S0, 0) // forwarded from the store every iteration
	b.Add(isa.T3, isa.T3, isa.T2)
	b.Addi(isa.T0, isa.T0, 1)
	b.Blt(isa.T0, isa.T1, "loop")
	b.Halt()
	core := run(t, DefaultConfig(), b.MustBuild(), emu.NewMemory(), bpred.NewTAGE(bpred.DefaultTAGEConfig()))
	if core.Stats.StoreForwards < 900 {
		t.Errorf("store forwards = %d, want ~1000", core.Stats.StoreForwards)
	}
	// sum 0..999 = 499500
	if got := int64(core.ArchReg(isa.T3)); got != 499500 {
		t.Errorf("forwarded sum = %d, want 499500", got)
	}
}

func TestMemoryStateMatchesFunctionalRun(t *testing.T) {
	build := func() (*isa.Program, *emu.Memory) {
		mem := emu.NewMemory()
		b := asm.New(0)
		b.Li(isa.S0, 0x8000)
		b.Li(isa.T0, 0)
		b.Li(isa.T1, 500)
		b.Label("loop")
		b.Slli(isa.T2, isa.T0, 3)
		b.Add(isa.T2, isa.S0, isa.T2)
		b.Mul(isa.T3, isa.T0, isa.T0)
		b.Sd(isa.T3, isa.T2, 0)
		b.Addi(isa.T0, isa.T0, 1)
		b.Blt(isa.T0, isa.T1, "loop")
		b.Halt()
		return b.MustBuild(), mem
	}
	p1, m1 := build()
	emu.Run(p1, m1, 0)
	p2, m2 := build()
	run(t, DefaultConfig(), p2, m2, bpred.NewTAGE(bpred.DefaultTAGEConfig()))
	for i := 0; i < 500; i++ {
		a := uint64(0x8000 + i*8)
		if m1.U64(a) != m2.U64(a) {
			t.Fatalf("mem[%#x]: functional %d vs timed %d", a, m1.U64(a), m2.U64(a))
		}
	}
	if m2.PendingBytes() != 0 {
		t.Errorf("timed run left %d pending bytes", m2.PendingBytes())
	}
}

func TestTinyResourcesStillCorrect(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROB, cfg.IQ, cfg.LQ, cfg.SQ, cfg.PRF = 8, 4, 2, 2, 44
	cfg.FetchWidth, cfg.RetireWidth = 2, 2
	prog, mem := randomBranchProgram(500)
	core := run(t, cfg, prog, mem, bpred.NewBimodal(10))
	if core.Stats.Retired == 0 {
		t.Fatal("nothing retired")
	}
	if !core.Drained() {
		t.Error("machine not drained at halt")
	}
}

func TestPartitionSlowsMainThread(t *testing.T) {
	cfg := DefaultConfig()
	p1, m1 := randomBranchProgram(3000)
	full := run(t, cfg, p1, m1, bpred.NewTAGE(bpred.DefaultTAGEConfig()))

	p2, m2 := randomBranchProgram(3000)
	hier := cache.New(cache.DefaultConfig())
	e := emu.New(p2, m2)
	pred := bpred.NewTAGE(bpred.DefaultTAGEConfig())
	core := NewCore(cfg, m2, hier, e.StepInto, Hooks{
		Predict: func(d *emu.DynInst) Prediction {
			return Prediction{Taken: pred.PredictAndTrain(d.PC, d.Taken)}
		},
	})
	core.SetLimits(cfg.FullLimits().Scale(1, 2))
	lanes := &LanePool{}
	for now := uint64(0); !core.Halted(); now++ {
		lanes.Reset(&cfg)
		core.Cycle(now, lanes)
	}
	if core.Stats.Cycles <= full.Stats.Cycles {
		t.Errorf("halved partition not slower: full %d vs half %d cycles",
			full.Stats.Cycles, core.Stats.Cycles)
	}
}

func TestSquashAllReplaysCorrectly(t *testing.T) {
	// Squash mid-run every 997 cycles; final state must still be correct.
	mem := emu.NewMemory()
	b := asm.New(0)
	b.Li(isa.S0, 0x8000)
	b.Li(isa.T0, 0)
	b.Li(isa.T1, 2000)
	b.Label("loop")
	b.Slli(isa.T2, isa.T0, 3)
	b.Add(isa.T2, isa.S0, isa.T2)
	b.Sd(isa.T0, isa.T2, 0)
	b.Ld(isa.T3, isa.T2, 0)
	b.Add(isa.S1, isa.S1, isa.T3)
	b.Addi(isa.T0, isa.T0, 1)
	b.Blt(isa.T0, isa.T1, "loop")
	b.Halt()
	prog := b.MustBuild()

	hier := cache.New(cache.DefaultConfig())
	e := emu.New(prog, mem)
	core := NewCore(DefaultConfig(), mem, hier, e.StepInto, Hooks{})
	lanes := &LanePool{}
	cfg := DefaultConfig()
	for now := uint64(0); !core.Halted(); now++ {
		if now > 10_000_000 {
			t.Fatal("did not terminate")
		}
		lanes.Reset(&cfg)
		core.Cycle(now, lanes)
		if now%997 == 0 && now > 0 {
			core.SquashAll(now)
		}
	}
	// sum 0..1999 = 1999000
	if got := int64(core.ArchReg(isa.S1)); got != 1999000 {
		t.Errorf("post-squash sum = %d, want 1999000", got)
	}
	if core.Stats.Squashes == 0 {
		t.Error("no squashes recorded")
	}
	for i := 0; i < 2000; i++ {
		a := uint64(0x8000 + i*8)
		if got := mem.U64(a); got != uint64(i) {
			t.Fatalf("mem[%#x] = %d, want %d", a, got, i)
		}
	}
}

func TestRetiredCountExact(t *testing.T) {
	prog, mem := randomBranchProgram(1000)
	// Count dynamic instructions functionally on an identical copy.
	p2, m2 := randomBranchProgram(1000)
	ref := emu.Run(p2, m2, 0)
	core := run(t, DefaultConfig(), prog, mem, bpred.NewBimodal(10))
	if core.Stats.Retired != ref.Insts {
		t.Errorf("retired %d != functional %d", core.Stats.Retired, ref.Insts)
	}
}

func TestBlockFetchUntil(t *testing.T) {
	b := asm.New(0)
	for i := 0; i < 100; i++ {
		b.Addi(isa.T0, isa.X0, 1)
	}
	b.Halt()
	prog := b.MustBuild()
	mem := emu.NewMemory()
	hier := cache.New(cache.DefaultConfig())
	e := emu.New(prog, mem)
	cfg := DefaultConfig()
	core := NewCore(cfg, mem, hier, e.StepInto, Hooks{})
	core.BlockFetchUntil(500)
	lanes := &LanePool{}
	var now uint64
	for ; !core.Halted(); now++ {
		lanes.Reset(&cfg)
		core.Cycle(now, lanes)
	}
	if now < 500 {
		t.Errorf("finished at cycle %d despite fetch blocked until 500", now)
	}
}

func TestPartitionPlanMatchesTableI(t *testing.T) {
	ito := PlanFor(false)
	if ito.MTNum*2 != ito.MTDen || ito.ITNum*2 != ito.ITDen || ito.OTDen != 0 {
		t.Errorf("MT+ITO plan = %+v, want 1/2 + 1/2", ito)
	}
	nested := PlanFor(true)
	if nested.MTNum*2 != nested.MTDen {
		t.Errorf("nested MT fraction = %d/%d, want 1/2", nested.MTNum, nested.MTDen)
	}
	if nested.OTNum*8 != nested.OTDen {
		t.Errorf("nested OT fraction = %d/%d, want 1/8", nested.OTNum, nested.OTDen)
	}
	if nested.ITNum != 3 || nested.ITDen != 8 {
		t.Errorf("nested IT fraction = %d/%d, want 3/8", nested.ITNum, nested.ITDen)
	}
}

func TestLimitsScale(t *testing.T) {
	l := DefaultConfig().FullLimits()
	h := l.Scale(1, 2)
	if h.ROB != 316 || h.LQ != 72 || h.SQ != 72 || h.FetchWidth != 4 {
		t.Errorf("half limits = %+v", h)
	}
	tiny := l.Scale(1, 8)
	if tiny.FetchWidth != 1 {
		t.Errorf("1/8 fetch width = %d, want 1", tiny.FetchWidth)
	}
}

func TestLanePool(t *testing.T) {
	cfg := DefaultConfig()
	var p LanePool
	p.Reset(&cfg)
	for i := 0; i < cfg.SimpleALUs; i++ {
		if !p.TakeSimple() {
			t.Fatal("simple slot missing")
		}
	}
	if p.TakeSimple() {
		t.Error("simple slots over-granted")
	}
	for i := 0; i < cfg.MemLanes; i++ {
		if !p.TakeMem() {
			t.Fatal("mem slot missing")
		}
	}
	if p.TakeMem() {
		t.Error("mem slots over-granted")
	}
	for i := 0; i < cfg.ComplexALUs; i++ {
		if !p.TakeComplex() {
			t.Fatal("complex slot missing")
		}
	}
	if p.TakeComplex() {
		t.Error("complex slots over-granted")
	}
}

func TestOverlapsHelper(t *testing.T) {
	cases := []struct {
		a1   uint64
		s1   int
		a2   uint64
		s2   int
		want bool
	}{
		{0x100, 8, 0x100, 8, true},
		{0x100, 8, 0x108, 8, false},
		{0x100, 8, 0x104, 4, true},
		{0x104, 4, 0x100, 8, true},
		{0x100, 1, 0x100, 8, true},
		{0x100, 4, 0x0F0, 8, false},
		{0x100, 4, 0x0FD, 8, true},
	}
	for _, c := range cases {
		if got := overlaps(c.a1, c.s1, c.a2, c.s2); got != c.want {
			t.Errorf("overlaps(%#x,%d,%#x,%d) = %v, want %v", c.a1, c.s1, c.a2, c.s2, got, c.want)
		}
	}
}
