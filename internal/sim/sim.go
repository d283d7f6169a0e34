// Package sim wires the full system together: functional emulator, timing
// core, branch predictor, cache hierarchy, and the Phelps controller (or the
// Branch Runahead baseline), and runs workloads to produce the paper's
// metrics (IPC, MPKI, helper-thread overhead, misprediction attribution).
//
// Run is the full cycle-accurate entry point; SampledRun (sampled.go) is the
// SimPoint-sampled one. Both return (Result, error): failures surface as
// wrapped sentinel errors (ErrLivelock, ErrVerify, ErrConsumed) matchable
// with errors.Is, and the Result carries whatever metrics were collected up
// to the failure.
package sim

import (
	"context"
	"errors"
	"fmt"

	"phelps/internal/bpred"
	"phelps/internal/cache"
	"phelps/internal/check"
	"phelps/internal/core"
	"phelps/internal/cpu"
	"phelps/internal/emu"
	"phelps/internal/obs"
	"phelps/internal/prog"
	"phelps/internal/runahead"
)

// Sentinel errors returned (wrapped) by Run and SampledRun.
var (
	// ErrLivelock: the run hit Config.MaxCycles before halting. The
	// accompanying Result is still populated (and Result.TimedOut set) so a
	// hung configuration produces a reportable matrix row.
	ErrLivelock = errors.New("simulation exceeded MaxCycles")
	// ErrVerify: the workload halted but its architectural results are
	// wrong.
	ErrVerify = errors.New("workload verification failed")
	// ErrConsumed: the workload's memory was already consumed by a previous
	// Run (build a fresh Workload per run, or use SampledRun, which takes a
	// Spec builder and cannot alias consumed state).
	ErrConsumed = errors.New("workload memory already consumed")
	// ErrPanic: the simulator panicked mid-run. RunMatrix and SampledRun
	// recover per-experiment panics into this sentinel (with the original
	// panic value and stack in the wrap), so one crashing cell cannot take
	// down a whole matrix; a minimized repro is dumped under the crash
	// directory (see MatrixOptions.CrashDir and EXPERIMENTS.md).
	ErrPanic = errors.New("simulator panicked")
	// ErrStall: the forward-progress watchdog fired — no instruction retired
	// for Config.StallCycles cycles. Distinct from ErrLivelock: a livelocked
	// run retires forever without halting, a stalled run stops retiring
	// entirely (a wedged pipeline). The wrap carries the pipeline occupancy
	// diagnosis.
	ErrStall = errors.New("pipeline stopped retiring")
	// ErrCheck: a verification check failed — the lockstep oracle observed a
	// divergence (Config.Lockstep) or a microarchitectural invariant was
	// violated (Config.Checks). The wrap carries the first failure's detail.
	ErrCheck = errors.New("verification check failed")
	// ErrCanceled: the run's context was canceled (RunCtx, SampledRunCtx,
	// RunMatrixCtx). The Result carries whatever was measured before the
	// cancellation point; the wrap carries the context's cause.
	ErrCanceled = errors.New("run canceled")
)

// IsTransient classifies a run failure for retry policies: transient
// failures are environmental — a wedged pipeline (ErrStall) or a recovered
// panic (ErrPanic) can be caused by resource pressure, a poisoned pooled
// structure, or an injected fault that will not strike again — and are worth
// a bounded number of re-executions. Everything else is deterministic with
// respect to the (workload, config) cell: livelock, verification and oracle
// failures, a consumed workload, and cancellation all recur on every retry,
// so callers should fail fast and record them as permanent.
func IsTransient(err error) bool {
	return errors.Is(err, ErrStall) || errors.Is(err, ErrPanic)
}

// Forward-progress watchdog controls (Config.StallCycles).
const (
	// DefaultStallCycles is the watchdog threshold when Config.StallCycles
	// is zero: no real configuration keeps the ROB head unretired this long
	// (the worst memory round-trip is a few hundred cycles), so a hit is a
	// wedged pipeline, not a slow one.
	DefaultStallCycles uint64 = 1_000_000
	// NoStallWatchdog disables the watchdog entirely.
	NoStallWatchdog uint64 = ^uint64(0)
)

// PredictorKind selects the core's branch predictor.
type PredictorKind int

// Available predictors.
const (
	PredTAGE PredictorKind = iota
	PredPerfect
	PredBimodal
	PredGshare
)

// Mode selects the pre-execution mechanism under test.
type Mode int

// Simulation modes.
const (
	ModeBaseline Mode = iota // core + predictor only
	ModePhelps               // predicated helper threads
	ModeRunahead             // Branch Runahead baseline
)

// Config is a full simulation configuration.
type Config struct {
	Core      cpu.Config
	Cache     cache.Config
	Predictor PredictorKind
	Mode      Mode
	Phelps    core.Config
	Runahead  runahead.Config

	// ForcePartition halves the main thread's resources for the entire run
	// without running helper threads (Fig. 13c).
	ForcePartition bool

	// MaxInsts stops the simulation after this many retired instructions
	// (0 = run to HALT). Verification only happens on complete runs.
	MaxInsts uint64
	// MaxCycles is a safety net against livelock. A run that exhausts it
	// stops gracefully with Result.TimedOut set and Run returning a wrapped
	// ErrLivelock (it does not panic), so a hung configuration still
	// produces a reportable matrix row.
	MaxCycles uint64

	// Obs optionally collects observability data for this run: registry
	// counters, interval samples, and (if Obs.Trace is set) a Konata
	// pipeline trace of the main thread. A Collector must not be shared
	// between concurrent runs.
	Obs *obs.Collector

	// Checks enables the microarchitectural invariant audit: the cheap
	// structural checks every cycle and the deep occupancy recount (plus the
	// Phelps partition-quota audit) every 256 cycles. A violation stops the
	// run with a wrapped ErrCheck. Zero overhead when false.
	Checks bool

	// Lockstep enables the differential retirement oracle: an independent
	// reference emulator replays the program alongside the timing run and
	// every retired instruction is compared record-by-record (see
	// internal/check). A divergence stops the run with a wrapped ErrCheck.
	Lockstep bool

	// StallCycles is the forward-progress watchdog threshold: if no
	// instruction retires for this many cycles the run stops with a wrapped
	// ErrStall and a pipeline-occupancy diagnosis. Zero means
	// DefaultStallCycles; NoStallWatchdog disables it.
	StallCycles uint64

	// Faults injects deliberate timing-model bugs into the main core (tests
	// of the verification machinery only; see cpu.FaultInjection).
	Faults *cpu.FaultInjection
}

// DefaultConfig returns the paper's baseline configuration with Phelps off.
func DefaultConfig() Config {
	return Config{
		Core:      cpu.DefaultConfig(),
		Cache:     cache.DefaultConfig(),
		Predictor: PredTAGE,
		Mode:      ModeBaseline,
		Phelps:    core.DefaultConfig(),
		Runahead:  runahead.DefaultConfig(),
		MaxCycles: 2_000_000_000,
	}
}

// PhelpsConfig returns a full-featured Phelps configuration with the given
// epoch length (scaled-down runs use shorter epochs; see EXPERIMENTS.md).
func PhelpsConfig(epochLen uint64) Config {
	cfg := DefaultConfig()
	cfg.Mode = ModePhelps
	cfg.Phelps.Enabled = true
	cfg.Phelps.EpochLen = epochLen
	return cfg
}

// Result carries the metrics of one run.
type Result struct {
	Cycles       uint64
	Retired      uint64
	CondBranches uint64
	Mispredicts  uint64
	QueuePreds   uint64
	QueueMisps   uint64
	Halted       bool
	// TimedOut reports that the run hit Config.MaxCycles before halting
	// (the returned error wraps ErrLivelock with the detail).
	TimedOut bool

	Phelps   core.Stats
	Runahead runahead.Stats
	Cache    cache.Stats
	Epochs   int

	// Sampled is set by SampledRun only: how this Result was reconstructed
	// from SimPoint-weighted intervals (nil for full runs).
	Sampled *SampleReport
}

// IPC returns instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / float64(r.Cycles)
}

// MPKI returns mispredictions per kilo-instruction.
func (r *Result) MPKI() float64 {
	if r.Retired == 0 {
		return 0
	}
	return float64(r.Mispredicts) * 1000 / float64(r.Retired)
}

func makePredictor(kind PredictorKind) bpred.Predictor {
	switch kind {
	case PredPerfect:
		return bpred.Perfect{}
	case PredBimodal:
		return bpred.NewBimodal(14)
	case PredGshare:
		return bpred.NewGshare(15, 13)
	default:
		return bpred.NewTAGE(bpred.DefaultTAGEConfig())
	}
}

// runOutcome tells a machine.run caller why the cycle loop stopped.
type runOutcome int

const (
	runDone        runOutcome = iota // halted or instruction bound reached
	runTimeout                       // maxCycles exhausted (ErrLivelock)
	runStalled                       // forward-progress watchdog fired (ErrStall)
	runCheckFailed                   // invariant violation or oracle divergence (ErrCheck)
	runCanceled                      // the run context was canceled (ErrCanceled)
)

// guard bundles the optional verification machinery of a run (invariant
// checks and the lockstep oracle). It is nil when neither is enabled, so the
// hot cycle loop pays one pointer test.
type guard struct {
	mt     *cpu.Core
	ctrl   *core.Controller // Phelps partition audit (nil otherwise)
	orc    *check.Oracle    // lockstep oracle (nil when Lockstep off)
	checks bool
}

// tick runs the per-cycle verification work; a non-nil error is the first
// failure and stops the run.
func (g *guard) tick(now uint64) error {
	if g.checks {
		if err := g.mt.CheckInvariants(); err != nil {
			return err
		}
		// The deep recount is O(in-flight window); amortize it.
		if now&255 == 0 {
			if err := g.mt.CheckInvariantsDeep(); err != nil {
				return err
			}
			if g.ctrl != nil {
				if err := g.ctrl.CheckInvariants(); err != nil {
					return err
				}
			}
		}
	}
	if g.orc != nil {
		if d := g.orc.Divergence(); d != nil {
			return d
		}
	}
	return nil
}

// machine is one assembled timing system: core, predictor, hierarchy, and
// the mode's controller, plus the cycle loop's mutable state. Run drives a
// machine from reset to halt; SampledRun drives one per SimPoint from a
// resumed checkpoint through warmup and measurement phases.
type machine struct {
	cfg   Config
	mt    *cpu.Core
	ctrl  *core.Controller
	bra   *runahead.Controller
	hier  *cache.Hierarchy
	pred  bpred.Predictor
	lanes cpu.LanePool
	now   uint64

	guard *guard // verification machinery; nil unless Checks/Lockstep set

	// Forward-progress watchdog (polled every 1024 cycles; 0 = disabled).
	stall        uint64
	lastRetired  uint64
	lastProgress uint64

	// done, when non-nil, is the run context's Done channel; the cycle loop
	// polls it alongside the watchdog, so a canceled run stops within 1024
	// cycles (runCanceled). nil — context.Background — costs one nil test
	// per poll.
	done <-chan struct{}

	failure error // first stall/check failure diagnosis (runStalled/runCheckFailed)
}

// setupGuards wires the watchdog and (if enabled) the invariant/oracle guard
// into the machine. orc may be nil.
func (m *machine) setupGuards(orc *check.Oracle) {
	switch {
	case m.cfg.StallCycles == NoStallWatchdog:
		m.stall = 0
	case m.cfg.StallCycles == 0:
		m.stall = DefaultStallCycles
	default:
		m.stall = m.cfg.StallCycles
	}
	m.lastProgress = m.now
	if orc != nil {
		orc.Attach(m.mt)
	}
	if m.cfg.Checks || orc != nil {
		m.guard = &guard{mt: m.mt, ctrl: m.ctrl, orc: orc, checks: m.cfg.Checks}
	}
}

// newMachine assembles a machine over an emulator. pred and hier may be
// pre-warmed (SampledRun trains them functionally before the timing phases).
func newMachine(cfg Config, mem *emu.Memory, e *emu.Emulator, pred bpred.Predictor, hier *cache.Hierarchy) *machine {
	m := &machine{cfg: cfg, pred: pred, hier: hier}
	hooks := cpu.Hooks{}

	switch cfg.Mode {
	case ModePhelps:
		m.cfg.Phelps.Enabled = true
		m.ctrl = core.NewController(m.cfg.Phelps, cfg.Core, mem, hier)
		ctrl := m.ctrl
		hooks.Predict = func(d *emu.DynInst) cpu.Prediction {
			base := pred.PredictAndTrain(d.PC, d.Taken)
			if p, handled := ctrl.Predict(d); handled {
				return p
			}
			return cpu.Prediction{Taken: base}
		}
		hooks.OnFetch = ctrl.OnFetch
		hooks.OnRetire = ctrl.OnRetire
	case ModeRunahead:
		m.bra = runahead.NewController(cfg.Runahead, cfg.Core, mem, hier)
		bra := m.bra
		hooks.Predict = func(d *emu.DynInst) cpu.Prediction {
			base := pred.PredictAndTrain(d.PC, d.Taken)
			if p, handled := bra.Predict(d); handled {
				return p
			}
			return cpu.Prediction{Taken: base}
		}
		hooks.OnFetch = bra.OnFetch
		hooks.OnRetire = bra.OnRetire
	default:
		hooks.Predict = func(d *emu.DynInst) cpu.Prediction {
			return cpu.Prediction{Taken: pred.PredictAndTrain(d.PC, d.Taken)}
		}
	}

	m.mt = cpu.NewCore(cfg.Core, mem, hier, e.StepInto, hooks)
	if m.ctrl != nil {
		m.ctrl.AttachCore(m.mt)
	}
	if m.bra != nil {
		m.bra.AttachCore(m.mt)
	}
	if cfg.ForcePartition {
		m.mt.SetLimits(cfg.Core.FullLimits().Scale(1, 2))
	}
	if cfg.Faults != nil {
		m.mt.InjectFaults(cfg.Faults)
	}
	return m
}

// registerObs wires the machine's components into a collector's registry.
func (m *machine) registerObs(o *obs.Collector) {
	m.mt.RegisterObs(o.Registry, "core.main")
	m.hier.RegisterObs(o.Registry, "cache")
	if ro, ok := m.pred.(interface {
		RegisterObs(*obs.Registry, string)
	}); ok {
		ro.RegisterObs(o.Registry, "bpred."+m.pred.Name())
	}
	if m.ctrl != nil {
		m.ctrl.RegisterObs(o.Registry, "phelps")
	}
	if m.bra != nil {
		m.bra.RegisterObs(o.Registry, "runahead")
	}
	if o.Trace != nil {
		m.mt.SetTracer(o.Trace)
	}
}

// run advances the cycle loop, executing every cycle, until the core
// halts, maxInsts instructions have retired (0 = unbounded), now reaches
// maxCycles, the forward-progress watchdog fires, a verification check
// fails (the latter two leave the diagnosis in m.failure), or the run
// context is canceled. The clock (m.now) persists across calls, so sampled
// runs chain warmup and measurement phases on one machine.
func (m *machine) run(maxInsts, maxCycles uint64) runOutcome {
	for ; ; m.now++ {
		if m.mt.Halted() {
			return runDone
		}
		if maxInsts > 0 && m.mt.Stats.Retired >= maxInsts {
			return runDone
		}
		if m.now >= maxCycles {
			return runTimeout
		}
		m.lanes.Reset(&m.cfg.Core)
		// The IQ and lanes are flexibly shared (Section IV-A). Helper
		// threads issue first: they are latency-critical (their lead is what
		// produces timely predictions) and naturally self-throttle at the
		// prediction-queue depth, returning bandwidth to the main thread at
		// the full-queue equilibrium.
		if m.ctrl != nil {
			m.ctrl.SetNow(m.now)
			m.ctrl.CycleEngines(m.now, &m.lanes)
			m.mt.Cycle(m.now, &m.lanes)
		} else if m.bra != nil {
			m.bra.SetNow(m.now)
			m.bra.CycleChains(m.now, &m.lanes)
			m.mt.Cycle(m.now, &m.lanes)
		} else {
			m.mt.Cycle(m.now, &m.lanes)
		}
		if m.cfg.Obs != nil {
			m.cfg.Obs.MaybeSample(m.mt.Stats.Cycles)
		}
		if m.guard != nil {
			if err := m.guard.tick(m.now); err != nil {
				m.failure = err
				return runCheckFailed
			}
		}
		if m.now&1023 != 0 {
			continue
		}
		// Every 1024 cycles: the cancellation poll and the forward-progress
		// watchdog (retirement must advance between polls).
		if m.done != nil {
			select {
			case <-m.done:
				return runCanceled
			default:
			}
		}
		if m.stall != 0 {
			if r := m.mt.Stats.Retired; r != m.lastRetired {
				m.lastRetired, m.lastProgress = r, m.now
			} else if m.now-m.lastProgress >= m.stall {
				m.failure = fmt.Errorf("no instruction retired in %d cycles (cycle %d, %d retired) [%s]",
					m.now-m.lastProgress, m.now, r, m.mt.Occupancy())
				return runStalled
			}
		}
	}
}

// resetStats clears every component's counters at a phase boundary
// (microarchitectural state — predictors, caches, the pipeline — stays
// warm).
func (m *machine) resetStats() {
	m.mt.ResetStats()
	m.hier.ResetStats()
	if m.ctrl != nil {
		m.ctrl.ResetStats()
	}
	if m.bra != nil {
		m.bra.ResetStats()
	}
}

// result assembles a Result from the machine's current counters.
func (m *machine) result(timedOut bool) Result {
	res := Result{
		Cycles:       m.mt.Stats.Cycles,
		Retired:      m.mt.Stats.Retired,
		CondBranches: m.mt.Stats.CondBranches,
		Mispredicts:  m.mt.Stats.Mispredicts,
		QueuePreds:   m.mt.Stats.QueuePreds,
		QueueMisps:   m.mt.Stats.QueueMisps,
		Halted:       m.mt.Halted(),
		TimedOut:     timedOut,
		Cache:        m.hier.Stats,
	}
	if m.ctrl != nil {
		m.ctrl.FinalizeAttribution()
		res.Phelps = m.ctrl.Stats
		res.Epochs = m.ctrl.EpochIndex
	}
	if m.bra != nil {
		res.Runahead = m.bra.Stats
	}
	return res
}

// Run simulates a workload under a configuration, cycle-accurately from
// reset to HALT. The workload's memory is consumed: the run mutates it in
// place and clears w.Mem, so a second Run of the same Workload value returns
// ErrConsumed (build a fresh Workload per run — or hand a Spec to
// SampledRun, which rebuilds as needed).
//
// The error is nil for a clean, verified run. Otherwise it wraps ErrLivelock
// (MaxCycles exhausted), ErrStall (the pipeline stopped retiring), ErrCheck
// (an invariant or lockstep-oracle failure), or ErrVerify (wrong
// architectural results); the Result is populated either way with the
// metrics collected so far.
func Run(w *prog.Workload, cfg Config) (Result, error) {
	return RunCtx(context.Background(), w, cfg)
}

// RunCtx is Run under a context: when ctx is canceled the cycle loop stops
// within 1024 cycles and RunCtx returns the metrics collected
// so far with a wrapped ErrCanceled. The daemon's job-cancel path rides on
// this; context.Background() reproduces Run exactly.
func RunCtx(ctx context.Context, w *prog.Workload, cfg Config) (Result, error) {
	if w.Mem == nil {
		return Result{}, fmt.Errorf("sim: %s: %w", w.Name, ErrConsumed)
	}
	if ctx.Err() != nil {
		return Result{}, fmt.Errorf("sim: %s: %w: %v", w.Name, ErrCanceled, context.Cause(ctx))
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 2_000_000_000
	}
	mem := w.Mem
	w.Mem = nil // consumed: the run mutates mem in place

	// The lockstep oracle snapshots the initial memory before the emulator
	// stages any store, giving the reference an isolated copy-on-write view.
	var orc *check.Oracle
	if cfg.Lockstep {
		img, err := mem.Snapshot()
		if err != nil {
			return Result{}, fmt.Errorf("sim: %s: lockstep snapshot: %w", w.Name, err)
		}
		orc = check.NewOracle(w.Prog, img)
	}

	hier := cache.New(cfg.Cache)
	e := emu.New(w.Prog, mem)
	pred := makePredictor(cfg.Predictor)

	m := newMachine(cfg, mem, e, pred, hier)
	m.done = ctx.Done()
	m.setupGuards(orc)
	if cfg.Obs != nil {
		m.registerObs(cfg.Obs)
	}

	outcome := m.run(cfg.MaxInsts, cfg.MaxCycles)
	if cfg.Obs != nil {
		cfg.Obs.Finish(m.mt.Stats.Cycles)
	}

	res := m.result(outcome == runTimeout)
	switch outcome {
	case runTimeout:
		return res, fmt.Errorf("sim: %s did not finish within %d cycles (retired %d): %w",
			w.Name, cfg.MaxCycles, res.Retired, ErrLivelock)
	case runStalled:
		return res, fmt.Errorf("sim: %s: %w: %v", w.Name, ErrStall, m.failure)
	case runCheckFailed:
		return res, fmt.Errorf("sim: %s: %w: %v", w.Name, ErrCheck, m.failure)
	case runCanceled:
		return res, fmt.Errorf("sim: %s: %w: %v", w.Name, ErrCanceled, context.Cause(ctx))
	}
	if orc != nil {
		// End-of-run audit: reference halted too, memories byte-identical
		// (full runs only — a MaxInsts-bounded run stops mid-stream).
		final := res.Halted && cfg.MaxInsts == 0
		if cerr := orc.Finish(mem, final); cerr != nil {
			return res, fmt.Errorf("sim: %s: %w: %v", w.Name, ErrCheck, cerr)
		}
	}
	if res.Halted && w.Verify != nil {
		if verr := w.Verify(mem); verr != nil {
			return res, fmt.Errorf("sim: %s: %w: %v", w.Name, ErrVerify, verr)
		}
	}
	return res, nil
}
