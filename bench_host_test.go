// Host-performance benchmark suite: how fast the simulator itself runs on
// the host, as opposed to bench_test.go which reproduces the paper's
// simulated metrics. Three layers are covered, matching the hot path from
// the inside out:
//
//   - emu.Memory primitive operations (arch/program reads, stage/retire),
//   - the full core pipeline loop (simulated instructions per host second
//     and allocations per simulated instruction, via b.ReportAllocs),
//   - the quick Fig. 12a experiment matrix end to end,
//   - sampled (SimPoint) vs full cycle-accurate simulation of the longest
//     quick-profile workload.
//
// cmd/phelpsreport -host records the same quantities into BENCH_host.json
// so the trajectory is tracked across PRs (see EXPERIMENTS.md).
package phelps_test

import (
	"runtime"
	"testing"

	"phelps/internal/emu"
	"phelps/internal/prog"
	"phelps/internal/sim"
)

// --- emu.Memory primitives ---

func BenchmarkHostMemArchRead8(b *testing.B) {
	m := emu.NewMemory()
	for a := uint64(0); a < 1<<16; a += 8 {
		m.SetU64(a, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.ReadArch(uint64(i*8)&0xFFF8, 8)
	}
	_ = sink
}

func BenchmarkHostMemArchWrite8(b *testing.B) {
	m := emu.NewMemory()
	m.SetU64(0, 0) // touch the page once so the loop measures writes, not page faults
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteArch(uint64(i*8)&0xFF8, 8, uint64(i))
	}
}

func BenchmarkHostMemProgramReadClean(b *testing.B) {
	// Program-order read with no pending stores anywhere: the common case for
	// load-heavy workloads once stores retire promptly.
	m := emu.NewMemory()
	for a := uint64(0); a < 1<<12; a += 8 {
		m.SetU64(a, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.ReadProgram(uint64(i*8)&0xFF8, 8)
	}
	_ = sink
}

func BenchmarkHostMemProgramReadPending(b *testing.B) {
	// Program-order read through a page that carries pending stores.
	m := emu.NewMemory()
	for a := uint64(0); a < 1<<12; a += 8 {
		m.SetU64(a, a)
	}
	for i := 0; i < 64; i++ {
		m.StagePendingStore(uint64(i), uint64(i*8), 8, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.ReadProgram(uint64(i*8)&0x1F8, 8)
	}
	_ = sink
}

func BenchmarkHostMemStageRetire(b *testing.B) {
	// The store lifecycle: stage at fetch, retire in order. One op = one
	// 8-byte store staged and retired.
	m := emu.NewMemory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint64(i*8) & 0xFFF8
		m.StagePendingStore(uint64(i), a, 8, uint64(i))
		if err := m.RetireStore(uint64(i), a, 8, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHostMemStageRetireWindow(b *testing.B) {
	// Stage/retire with a realistic in-flight window (64 stores deep), so the
	// overlay always has pending data in the touched pages.
	m := emu.NewMemory()
	const depth = 64
	var seq uint64
	for ; seq < depth; seq++ {
		m.StagePendingStore(seq, (seq*8)&0xFFF8, 8, seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := seq - depth
		if err := m.RetireStore(old, (old*8)&0xFFF8, 8, old); err != nil {
			b.Fatal(err)
		}
		m.StagePendingStore(seq, (seq*8)&0xFFF8, 8, seq)
		seq++
	}
}

// --- core pipeline loop ---

// runSimBench runs builds of a workload under cfg, reporting simulated
// instructions per host-second and heap allocations per simulated
// instruction (workload construction excluded from both).
func runSimBench(b *testing.B, build func() *prog.Workload, cfg sim.Config) {
	b.Helper()
	b.ReportAllocs()
	var retired uint64
	var mallocs uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := build()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		r, err := sim.Run(w, cfg)
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		if err != nil {
			b.Fatalf("sim: %v", err)
		}
		retired += r.Retired
		b.StartTimer()
	}
	b.StopTimer()
	if retired > 0 {
		b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "sim-inst/s")
		b.ReportMetric(float64(mallocs)/float64(retired), "allocs/sim-inst")
	}
}

func BenchmarkHostCoreLoopPredictable(b *testing.B) {
	// Steady-state pipeline throughput: a predictable loop keeps the frontend
	// streaming and the backend full, so this measures the per-instruction
	// cost of fetch/dispatch/issue/retire with almost no recovery events.
	runSimBench(b, func() *prog.Workload { return prog.PredictableLoop(400_000) }, sim.DefaultConfig())
}

func BenchmarkHostCoreLoopDelinquent(b *testing.B) {
	// Mispredict-heavy baseline: exercises squash-free fetch stalls plus the
	// store stage/retire path under pressure.
	runSimBench(b, func() *prog.Workload { return prog.DelinquentLoop(50_000, 50, 1) }, sim.DefaultConfig())
}

func BenchmarkHostCoreLoopPhelps(b *testing.B) {
	// Phelps mode adds helper-thread engines and frequent SquashAll calls at
	// trigger/termination — the scratch-reuse paths.
	runSimBench(b, func() *prog.Workload { return prog.DelinquentLoop(50_000, 50, 1) }, sim.PhelpsConfig(50_000))
}

// --- calendar event queue A/B ---
//
// The event-queue benches run the core loop on a memory-bound pointer chase
// (1M nodes, a 16 MB table ≈ 5× L3, serially dependent loads) under a
// harder memory system (DRAM 300 cycles, 4 MSHRs) — the delinquent-load
// regime the event-driven clock targets. Each bench has a Stepped partner
// that forces per-cycle execution (Config.ForceStep, no scheduler attached);
// the ratio of the two sim-inst/s figures is the speedup `phelpsreport
// -host` records as event_queue.core_loop.{delinquent,phelps}. The
// compute-bound core-loop benches above retire nearly every cycle, so they
// have no skippable spans and would A/B only the queue's bookkeeping
// overhead.

func eventQueueChase() *prog.Workload { return prog.DelinquentChase(1<<20, 150_000, 50, 1) }

func memBoundCfg(cfg sim.Config) sim.Config {
	cfg.Cache.DRAMLatency = 300
	cfg.Cache.MSHRs = 4
	return cfg
}

func BenchmarkHostEventQueueDelinquent(b *testing.B) {
	runSimBench(b, eventQueueChase, memBoundCfg(sim.DefaultConfig()))
}

func BenchmarkHostEventQueueDelinquentStepped(b *testing.B) {
	cfg := memBoundCfg(sim.DefaultConfig())
	cfg.ForceStep = true
	runSimBench(b, eventQueueChase, cfg)
}

func BenchmarkHostEventQueuePhelps(b *testing.B) {
	runSimBench(b, eventQueueChase, memBoundCfg(sim.PhelpsConfig(50_000)))
}

func BenchmarkHostEventQueuePhelpsStepped(b *testing.B) {
	cfg := memBoundCfg(sim.PhelpsConfig(50_000))
	cfg.ForceStep = true
	runSimBench(b, eventQueueChase, cfg)
}

// --- chase_mem cells ---
//
// The chase benches run the cells the chase_mem host benchmark times, in
// process and at Table III settings (DRAM 100 cycles, 32 MSHRs): the
// full-size chase under base and phelps, and chase_nested under phelps,
// whose outer and inner helper threads share the issue lanes with the main
// thread; the phelps cells time the issue stages of both the core and the
// helper-thread engines.

func runChaseBench(b *testing.B, workload, config string) {
	b.Helper()
	spec, err := sim.SpecByName(workload, false)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sim.ConfigByName(config, spec.Epoch)
	if err != nil {
		b.Fatal(err)
	}
	runSimBench(b, spec.Build, cfg)
}

func BenchmarkHostChaseBase(b *testing.B)         { runChaseBench(b, "chase", sim.CfgBase) }
func BenchmarkHostChasePhelps(b *testing.B)       { runChaseBench(b, "chase", sim.CfgPhelps) }
func BenchmarkHostChaseNestedPhelps(b *testing.B) { runChaseBench(b, "chase_nested", sim.CfgPhelps) }

func BenchmarkHostCoreLoopVerified(b *testing.B) {
	// Full verification on: per-cycle invariant checks plus the lockstep
	// oracle. Compare against BenchmarkHostCoreLoopDelinquent (the same run
	// with verification off) to price the machinery; the off state costs
	// nothing because the cycle loop's guard pointer stays nil.
	cfg := sim.DefaultConfig()
	cfg.Checks = true
	cfg.Lockstep = true
	runSimBench(b, func() *prog.Workload { return prog.DelinquentLoop(50_000, 50, 1) }, cfg)
}

// --- full quick experiment matrix ---

func BenchmarkHostQuickMatrixFig12a(b *testing.B) {
	// End-to-end host throughput of the quick Fig. 12a matrix (the
	// acceptance-gate quantity for the allocation-free hot path work).
	configs := []string{sim.CfgBase, sim.CfgPerfect, sim.CfgPhelps, sim.CfgBR, sim.CfgBR12w}
	b.ReportAllocs()
	var retired uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.RunMatrix(sim.GapSpecs(true), configs)
		if err != nil {
			b.Fatalf("matrix: %v", err)
		}
		for _, cfgs := range m {
			for _, r := range cfgs {
				retired += r.Retired
			}
		}
	}
	b.StopTimer()
	if retired > 0 {
		b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "sim-inst/s")
	}
}

// --- sampled vs full simulation ---

// xzSpec is the longest quick-profile workload (~925k retired instructions),
// the one the sampled-vs-full speedup gate is measured on.
func xzSpec(b *testing.B) sim.Spec {
	b.Helper()
	for _, s := range sim.SpecCPUSpecs(true) {
		if s.Name == "xz" {
			return s
		}
	}
	b.Fatal("xz spec not found")
	return sim.Spec{}
}

func BenchmarkHostFullXz(b *testing.B) {
	// Full cycle-accurate baseline run; the denominator of the sampled
	// speedup.
	spec := xzSpec(b)
	cfg, err := sim.ConfigByName(sim.CfgBase, spec.Epoch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := spec.Build()
		b.StartTimer()
		if _, err := sim.Run(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHostSampledXz(b *testing.B) {
	// End-to-end sampled run: functional profile, checkpoint pass, and k
	// cycle-accurate interval measurements (default SampleConfig).
	spec := xzSpec(b)
	cfg, err := sim.ConfigByName(sim.CfgBase, spec.Epoch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SampledRun(spec, cfg, sim.SampleConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parallel points + persistent checkpoint cache ---
//
// The warm benches resume from a prepopulated checkpoint-cache artifact, so
// they measure only point measurement (the quantity phelpsreport -host
// records as ckpt_cache.xz warm_speedup against the cold BenchmarkHostSampledXz
// above, and as sampled_parallel.xz for 8 workers vs warm serial).

// warmSampledXz benches a sampled xz run against a warmed checkpoint cache at
// the given point-measurement worker count.
func warmSampledXz(b *testing.B, workers int) {
	spec := xzSpec(b)
	cfg, err := sim.ConfigByName(sim.CfgBase, spec.Epoch)
	if err != nil {
		b.Fatal(err)
	}
	ckpts := sim.NewCkptCache(b.TempDir())
	if _, err := sim.SampledRun(spec, cfg, sim.SampleConfig{Ckpts: ckpts}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SampledRun(spec, cfg, sim.SampleConfig{Ckpts: ckpts, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHostSampledXzWarmSerial(b *testing.B)   { warmSampledXz(b, 1) }
func BenchmarkHostSampledXzWarm8Workers(b *testing.B) { warmSampledXz(b, 8) }
