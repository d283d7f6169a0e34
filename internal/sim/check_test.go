package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phelps/internal/cpu"
	"phelps/internal/emu"
	"phelps/internal/isa"
	"phelps/internal/prog"
)

// The verification-subsystem tests: the lockstep oracle and invariant
// checks must pass clean runs untouched, catch each class of injected
// timing-model bug, and contain per-cell panics in matrix runs.

// findSeq scans a workload's functional stream for the first dynamic
// sequence number at or after from whose instruction satisfies want. The
// scan uses its own workload instance (emulation consumes memory state).
func findSeq(t *testing.T, build func() *prog.Workload, from uint64, want func(d *emu.DynInst) bool) uint64 {
	t.Helper()
	w := build()
	e := emu.New(w.Prog, w.Mem)
	for {
		d, ok := e.Step()
		if !ok {
			t.Fatal("findSeq: no matching instruction before HALT")
		}
		if d.Inst.Op.IsStore() {
			if err := w.Mem.RetireStore(d.Seq, d.Addr, d.MemSize, d.StoreVal); err != nil {
				t.Fatal(err)
			}
		}
		if d.Seq >= from && want(&d) {
			return d.Seq
		}
	}
}

func TestVerificationSentinels(t *testing.T) {
	wrapped := map[error]error{
		ErrPanic: errors.Join(errors.New("x"), ErrPanic),
		ErrStall: errors.Join(ErrStall),
		ErrCheck: errors.Join(ErrCheck),
	}
	for sentinel, err := range wrapped {
		if !errors.Is(err, sentinel) {
			t.Errorf("wrap of %v does not match it", sentinel)
		}
	}
	// The sentinels must stay distinct: matrix callers branch on them.
	for _, a := range []error{ErrPanic, ErrStall, ErrCheck, ErrLivelock, ErrVerify} {
		for _, b := range []error{ErrPanic, ErrStall, ErrCheck, ErrLivelock, ErrVerify} {
			if a != b && errors.Is(a, b) {
				t.Errorf("%v matches %v", a, b)
			}
		}
	}
}

// Clean runs under full verification: the oracle and invariant checks must
// report nothing on all three mechanisms.
func TestLockstepCleanMicro(t *testing.T) {
	configs := map[string]Config{
		"base":     DefaultConfig(),
		"phelps":   PhelpsConfig(20_000),
		"runahead": func() Config { c := DefaultConfig(); c.Mode = ModeRunahead; c.Runahead.EpochLen = 20_000; return c }(),
	}
	builds := map[string]func() *prog.Workload{
		"delinquent": func() *prog.Workload { return prog.DelinquentLoop(20000, 50, 1) },
		"guarded":    func() *prog.Workload { return prog.GuardedPair(20000, 24, 3) },
		"nested":     func() *prog.Workload { return prog.NestedLoop(8000, 6, 4) },
	}
	for wname, build := range builds {
		for cname, cfg := range configs {
			t.Run(wname+"/"+cname, func(t *testing.T) {
				cfg.Checks = true
				cfg.Lockstep = true
				if _, err := Run(build(), cfg); err != nil {
					t.Fatalf("verified run failed: %v", err)
				}
			})
		}
	}
}

// The acceptance gate: the lockstep oracle and invariant checks across the
// full quick GAP matrix, and quick xz under br, report zero divergences. xz
// under br squashes the main thread more often than any other quick cell, so
// it drives the squash and re-fetch path hardest.
func TestLockstepQuickMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full verified matrix is not a -short test")
	}
	opt := MatrixOptions{Checks: true, Lockstep: true, CrashDir: t.TempDir()}
	_, err := RunMatrixOpt(GapSpecs(true), []string{CfgBase, CfgPhelps, CfgBR}, opt)
	if err != nil {
		t.Fatalf("verified quick matrix reported failures:\n%v", err)
	}
	xz, err := SpecByName("xz", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCellCtx(context.Background(), xz, CfgBR, opt); err != nil {
		t.Fatalf("verified quick xz/br: %v", err)
	}
}

// Each injected timing-model bug must be caught by the layer designed for
// it, with the right sentinel.
func TestInjectedTimingBugsCaught(t *testing.T) {
	build := func() *prog.Workload { return prog.DelinquentLoop(20000, 50, 1) }

	t.Run("corrupt-rd/lockstep", func(t *testing.T) {
		seq := findSeq(t, build, 1000, func(d *emu.DynInst) bool {
			return d.Inst.Op.WritesRd() && d.Inst.Rd != 0
		})
		cfg := DefaultConfig()
		cfg.Lockstep = true
		cfg.Faults = &cpu.FaultInjection{CorruptRdSeq: seq}
		_, err := Run(build(), cfg)
		if !errors.Is(err, ErrCheck) {
			t.Fatalf("corrupted retirement not caught: %v", err)
		}
		if !strings.Contains(err.Error(), "architectural") {
			t.Errorf("divergence should blame the architectural register file: %v", err)
		}
	})

	t.Run("skip-retire/lockstep", func(t *testing.T) {
		seq := findSeq(t, build, 1000, func(d *emu.DynInst) bool {
			op := d.Inst.Op
			return !op.IsStore() && op != isa.HALT
		})
		cfg := DefaultConfig()
		cfg.Lockstep = true
		cfg.Faults = &cpu.FaultInjection{SkipRetireSeq: seq}
		_, err := Run(build(), cfg)
		if !errors.Is(err, ErrCheck) {
			t.Fatalf("dropped retirement not caught: %v", err)
		}
		if !strings.Contains(err.Error(), "dropped or duplicated") {
			t.Errorf("divergence should report the sequence gap: %v", err)
		}
	})

	t.Run("leak-prf/invariants", func(t *testing.T) {
		seq := findSeq(t, build, 1000, func(d *emu.DynInst) bool {
			return d.Inst.Op.WritesRd() && d.Inst.Rd != 0
		})
		cfg := DefaultConfig()
		cfg.Checks = true
		cfg.Faults = &cpu.FaultInjection{LeakPRFSeq: seq}
		_, err := Run(build(), cfg)
		if !errors.Is(err, ErrCheck) {
			t.Fatalf("leaked physical register not caught: %v", err)
		}
	})

	t.Run("sticky-issue/watchdog", func(t *testing.T) {
		seq := findSeq(t, build, 1000, func(d *emu.DynInst) bool { return true })
		cfg := DefaultConfig()
		cfg.StallCycles = 20_000
		cfg.Faults = &cpu.FaultInjection{StickySeq: seq}
		res, err := Run(build(), cfg)
		if !errors.Is(err, ErrStall) {
			t.Fatalf("wedged pipeline not caught: %v", err)
		}
		if !strings.Contains(err.Error(), "retired") {
			t.Errorf("stall diagnosis should report retirement state: %v", err)
		}
		// The point of the watchdog: fail in ~StallCycles, not MaxCycles.
		if res.Cycles > 100_000 {
			t.Errorf("watchdog burned %d cycles before firing", res.Cycles)
		}
	})
}

// One panicking cell must not take down the rest of the matrix, and must
// leave a crash repro behind.
func TestMatrixPanicContainment(t *testing.T) {
	crashDir := t.TempDir()
	good := Spec{Name: "good", Epoch: 20_000, Build: func() *prog.Workload {
		return prog.DelinquentLoop(5000, 50, 1)
	}}
	boom := Spec{Name: "boom", Epoch: 20_000, Build: func() *prog.Workload {
		w := prog.DelinquentLoop(5000, 50, 1)
		w.Prog.Entry = 0 // outside the code image: the first Step panics
		return w
	}}
	m, err := RunMatrixOpt([]Spec{good, boom}, []string{CfgBase, CfgPhelps},
		MatrixOptions{CrashDir: crashDir})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("panicking cell did not surface ErrPanic: %v", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("error should name the failing cell: %v", err)
	}
	// The healthy workload's cells completed normally.
	for _, c := range []string{CfgBase, CfgPhelps} {
		if r := m["good"][c]; r.Retired == 0 || !r.Halted {
			t.Errorf("good/%s did not complete: %+v", c, r)
		}
	}
	// A minimized repro landed in the crash directory.
	files, derr := os.ReadDir(crashDir)
	if derr != nil || len(files) == 0 {
		t.Fatalf("no crash dump written (err=%v)", derr)
	}
	data, derr := os.ReadFile(filepath.Join(crashDir, files[0].Name()))
	if derr != nil {
		t.Fatal(derr)
	}
	for _, want := range []string{"workload: boom", "stack:", "program ("} {
		if !strings.Contains(string(data), want) {
			t.Errorf("crash dump missing %q", want)
		}
	}
}

// A sampled cell that panics outside point measurement — here in the
// checkpoint pass's rebuild of the workload — is contained like any other
// cell: a one-line ErrPanic error naming the repro, and a crash report on
// disk (not a goroutine stack pasted into the error text).
func TestSampledCellPanicContainment(t *testing.T) {
	crashDir := t.TempDir()
	builds := 0
	spec := Spec{Name: "boom", Epoch: 20_000, Build: func() *prog.Workload {
		if builds++; builds == 2 {
			panic("second build")
		}
		return prog.DelinquentLoop(30_000, 50, 1)
	}}
	_, err := RunCellCtx(context.Background(), spec, CfgBase,
		MatrixOptions{CrashDir: crashDir, Sample: &SampleConfig{}})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("panicking sampled cell did not surface ErrPanic: %v", err)
	}
	if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, "(repro dumped to ") {
		t.Errorf("want a one-line error naming the repro, got:\n%s", msg)
	}
	files, derr := os.ReadDir(crashDir)
	if derr != nil || len(files) != 1 {
		t.Fatalf("want one crash dump, got %d (err=%v)", len(files), derr)
	}
	data, derr := os.ReadFile(filepath.Join(crashDir, files[0].Name()))
	if derr != nil {
		t.Fatal(derr)
	}
	for _, want := range []string{"workload: boom", "second build", "stack:"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("crash dump missing %q", want)
		}
	}
}

// A panic inside a sampled cell's point measurement is dumped under the
// cell's configuration, so the base and phelps dumps of one workload differ
// on disk: each report's config line names its cell and the SimPoint.
func TestSampledPointCrashNamesCell(t *testing.T) {
	spec := Spec{Name: "dl", Epoch: 20_000, Build: func() *prog.Workload { return prog.DelinquentLoop(30_000, 50, 1) }}
	clean, err := RunCellCtx(context.Background(), spec, CfgBase, MatrixOptions{Sample: &SampleConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	last := clean.Sampled.Points[len(clean.Sampled.Points)-1]
	crashDir := t.TempDir()
	for _, label := range []string{CfgBase, CfgPhelps} {
		_, err := RunCellCtx(context.Background(), spec, label, MatrixOptions{CrashDir: crashDir,
			Sample: &SampleConfig{}, Faults: &cpu.FaultInjection{PanicAtSeq: last.StartInst + 100}})
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("%s: injected panic not contained: %v", label, err)
		}
	}
	files, derr := os.ReadDir(crashDir)
	if derr != nil || len(files) != 2 {
		t.Fatalf("want two crash dumps, got %d (err=%v)", len(files), derr)
	}
	configs := map[string]bool{}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(crashDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "config: ") {
				configs[line] = true
			}
		}
	}
	for _, label := range []string{CfgBase, CfgPhelps} {
		want := fmt.Sprintf("config: %s, SimPoint interval %d (sampled measure)", label, last.Interval)
		if !configs[want] {
			t.Errorf("no crash report reads %q; config lines: %v", want, configs)
		}
	}
}

// The watchdog default must be on (a wedged pipeline fails fast without any
// option set), and NoStallWatchdog must disable it.
func TestWatchdogDefaults(t *testing.T) {
	build := func() *prog.Workload { return prog.DelinquentLoop(20000, 50, 1) }
	seq := findSeq(t, build, 1000, func(d *emu.DynInst) bool { return true })

	cfg := DefaultConfig()
	cfg.Faults = &cpu.FaultInjection{StickySeq: seq}
	if _, err := Run(build(), cfg); !errors.Is(err, ErrStall) {
		t.Fatalf("default config did not catch the stall: %v", err)
	}

	cfg = DefaultConfig()
	cfg.Faults = &cpu.FaultInjection{StickySeq: seq}
	cfg.StallCycles = NoStallWatchdog
	cfg.MaxCycles = 50_000 // bounded: this run can only end by livelock
	if _, err := Run(build(), cfg); !errors.Is(err, ErrLivelock) {
		t.Fatalf("disabled watchdog should leave the livelock net: %v", err)
	}
}
