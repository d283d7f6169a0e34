package sim

// Sampled simulation (see DESIGN.md · Sampled simulation): instead of
// running every instruction through the cycle model, profile the workload in
// a fast functional pass, pick k representative intervals with the SimPoint
// methodology (internal/simpoint), fast-forward to an architectural
// checkpoint just before each one, and run only those intervals
// cycle-accurately. The weighted per-interval rates reconstruct whole-run
// IPC/MPKI in the same Result shape the matrix and report layers consume.
//
// The pipeline is two functional passes plus k short timing runs:
//
//  1. profile:    FastForward to HALT collecting interval BBVs live
//                 (simpoint.BBVCollector, merged from fixed-grain chunks).
//  2. pick:       k-means over the BBVs (simpoint.Pick) -> k weighted
//                 SimPoints.
//  3. checkpoint: FastForward again, functionally warming a fresh branch
//                 predictor and cache hierarchy over the last FuncWarmInsts
//                 before each SimPoint, then Checkpoint (copy-on-write
//                 memory snapshot) at the interval start.
//  4. measure:    per point, Resume the checkpoint into a timing machine
//                 with the warmed predictor/hierarchy, run WarmupInsts
//                 cycle-accurately, reset the counters, measure the
//                 interval.
//  5. weigh:      Result rates are the weight-averaged per-point rates
//                 scaled to the profiled instruction total.
//
// Two orthogonal accelerations sit on top (see DESIGN.md · Parallel sampled
// execution + checkpoint cache). Measurement (phase 4) can run the points on
// a bounded worker pool (SampleConfig.Workers): each point already owns an
// isolated machine — a copy-on-write materialization of its checkpoint plus
// its own predictor/hierarchy state — and the weighted reconstruction
// (phase 5) is aggregated serially in interval order afterwards, so the
// Result is bit-identical to a serial run. And the functional passes
// (phases 1–3) can be skipped entirely when SampleConfig.Ckpts holds a
// cached artifact for the (workload, config) key: the artifact carries the
// SimPoint list, the checkpoints, and the warmed predictor/hierarchy state
// blobs. A cold run with the cache enabled measures from the decoded form of
// the artifact it just encoded, so warm runs — decoding the same bytes —
// cannot differ.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"phelps/internal/bpred"
	"phelps/internal/cache"
	"phelps/internal/check"
	"phelps/internal/emu"
	"phelps/internal/isa"
	"phelps/internal/simpoint"
)

// SampleConfig tunes SampledRun. The zero value auto-sizes everything from
// the workload's dynamic instruction count.
type SampleConfig struct {
	// IntervalLen is the SimPoint interval in instructions. 0 auto-sizes to
	// total/50 rounded to a multiple of the 2000-inst profiling grain and
	// clamped to [2_000, 4_000].
	IntervalLen uint64
	// K scales the number of SimPoints: the clustering yields about K
	// weighted representatives (at most 2K; see simpoint.Pick), plus one
	// mandatory cold-start point covering the first intervals. 0 means 5.
	K int
	// WarmupInsts is the cycle-accurate warmup run before each measured
	// interval (counters are reset at the warmup/measure boundary). 0 means
	// max(IntervalLen/2, 4000): functional warming approximates timing
	// state, and the cycle-accurate warmup corrects it regardless of how
	// short the measured interval is.
	WarmupInsts uint64
	// FuncWarmInsts bounds functional warming. 0 (the default) warms one
	// branch predictor and cache hierarchy continuously from instruction 0
	// and clones them at each checkpoint — the most accurate option, since
	// the cloned state matches what a full run would have accumulated. A
	// nonzero value instead warms a fresh predictor/hierarchy over only the
	// last FuncWarmInsts before each checkpoint, which is cheaper on very
	// long workloads but cold-starts long-lived cache state.
	FuncWarmInsts uint64
	// MinIntervals is the minimum number of profiled intervals worth
	// sampling; below it SampledRun falls back to a full Run (the workload
	// is too short for fast-forwarding to pay). 0 means 4.
	MinIntervals int
	// Seed drives the k-means clustering (deterministic per seed). 0 means
	// 42.
	Seed uint64
	// MaxProfileInsts bounds the functional profile pass. 0 means 1e9.
	MaxProfileInsts uint64
	// Workers bounds how many SimPoints are measured concurrently. <= 1
	// measures serially (the default; callers that already parallelize
	// across runs, like the run matrix and the phelpsd pool, should
	// keep it). The Result is bit-identical for any worker count.
	Workers int
	// CrashDir receives crash reports when a point's measurement panics
	// (contained into an ErrPanic error either way). Empty means
	// $PHELPS_CRASH_DIR, falling back to "crashes".
	CrashDir string
	// Ckpts, when non-nil, caches the product of the functional passes — the
	// SimPoint list, checkpoints, and warmed predictor/hierarchy state —
	// keyed by workload content and sample/predictor/cache configuration, so
	// repeat runs skip profiling entirely. See CkptCache.
	Ckpts *CkptCache
}

func (sc SampleConfig) withDefaults() SampleConfig {
	if sc.K == 0 {
		sc.K = 4
	}
	if sc.MinIntervals == 0 {
		sc.MinIntervals = 4
	}
	if sc.Seed == 0 {
		sc.Seed = 42
	}
	if sc.MaxProfileInsts == 0 {
		sc.MaxProfileInsts = 1_000_000_000
	}
	return sc
}

// chunkLen is the fixed grain of the live BBV profile. Auto-sized intervals
// are multiples of it, so the profile pass can collect BBVs directly (no
// intermediate block stream) and merge chunks once the total is known.
const chunkLen = 2_000

// autoInterval sizes the interval for a profiled total when the caller
// didn't: ~50 intervals, rounded to a multiple of chunkLen and clamped so
// tiny workloads keep enough intervals to cluster and huge ones keep the
// measured fraction small.
func autoInterval(total uint64) uint64 {
	l := (total/50 + chunkLen/2) / chunkLen * chunkLen
	if l < chunkLen {
		l = chunkLen
	}
	if l > 2*chunkLen {
		l = 2 * chunkLen
	}
	return l
}

// coldIntervals is how many leading intervals the mandatory cold-start point
// measures contiguously: the cold transient usually spans a few intervals,
// but measuring many cold intervals cycle-accurately eats into the speedup.
// Derived from the interval count alone so the cached-artifact path
// reproduces it without the profile.
func coldIntervals(nIv int) int {
	c := nIv / 16
	if c < 1 {
		c = 1
	}
	if c > 3 {
		c = 3
	}
	return c
}

// SampleReport describes how a sampled Result was reconstructed.
type SampleReport struct {
	// FullRun is set when the workload was below MinIntervals and SampledRun
	// fell back to a complete cycle-accurate run (Points is then empty).
	FullRun     bool
	TotalInsts  uint64 // dynamic instructions in the functional profile
	IntervalLen uint64
	Intervals   int // profiled intervals
	Points      []PointResult
}

// PointResult is one measured SimPoint.
type PointResult struct {
	Interval  int     // interval index in the profile
	Weight    float64 // cluster weight (fractions sum to ~1)
	StartInst uint64  // first instruction of the interval
	Warmed    uint64  // instructions retired in the cycle-accurate warmup
	Measured  uint64  // instructions retired in the measured phase
	Cycles    uint64  // cycles of the measured phase
	IPC       float64
	MPKI      float64
}

// WeightedIPC returns the weighted harmonic-mean IPC over the measured
// points — the whole-run estimate (cycles add across intervals, IPC doesn't).
func (s *SampleReport) WeightedIPC() float64 {
	var inv, wsum float64
	for _, p := range s.Points {
		if p.IPC <= 0 {
			continue
		}
		inv += p.Weight / p.IPC
		wsum += p.Weight
	}
	if inv == 0 {
		return 0
	}
	return wsum / inv
}

// SampledRun estimates a workload's full-run metrics from k SimPoint
// intervals. It takes a Spec — a workload builder — rather than a Workload
// because it needs independent instances for the profile and checkpoint
// passes (and because Run consumes workload memory; a builder cannot alias
// consumed state). The returned Result has the same shape as Run's: Cycles,
// Retired, and the rate counters are scaled to the profiled total so IPC()
// and MPKI() read as whole-run estimates, and Result.Sampled records the
// reconstruction. Result.Cache holds the summed measured-interval cache
// stats (rates over the measured windows, not whole-run totals).
//
// cfg.Obs is not supported for sampled runs (k independent machines would
// race on one collector) and must be nil. cfg.MaxInsts bounds the profile
// pass. Workloads too short to sample fall back to a full Run, reported via
// Result.Sampled.FullRun.
func SampledRun(spec Spec, cfg Config, sc SampleConfig) (Result, error) {
	return SampledRunCtx(context.Background(), spec, cfg, sc)
}

// SampledRunCtx is SampledRun under a context: cancellation is polled in the
// functional passes (between fast-forward chunks), in checkpoint-cache I/O,
// between parallel point dispatches, and in every timing phase's cycle loop,
// returning a wrapped ErrCanceled. context.Background() reproduces
// SampledRun exactly.
func SampledRunCtx(ctx context.Context, spec Spec, cfg Config, sc SampleConfig) (res Result, err error) {
	// Fault containment: a panic anywhere in the profile/checkpoint/measure
	// pipeline becomes a wrapped ErrPanic instead of killing the caller (the
	// matrix worker pool in particular). Point-measurement workers carry
	// their own recover (measurePointSafe) — a panic on a pool goroutine
	// would otherwise kill the process, not reach this handler.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: %s: %w: %v\n%s", spec.Name, ErrPanic, r, debug.Stack())
		}
	}()
	return sampledRun(ctx, spec, cfg, sc)
}

// ffChunk bounds one uninterruptible functional fast-forward slice; the
// cancellation poll runs between slices (a few milliseconds of host time
// each).
const ffChunk = 4_000_000

// fastForwardCtx drives e.FastForward in ffChunk slices, polling ctx between
// slices. It returns the instructions executed and a wrapped ErrCanceled if
// the context fired first.
func fastForwardCtx(ctx context.Context, name string, e *emu.Emulator, n uint64, obs *emu.FFObserver) (uint64, error) {
	done := ctx.Done()
	var total uint64
	for total < n && !e.Halted {
		if done != nil {
			select {
			case <-done:
				return total, fmt.Errorf("sim: %s (fast-forward): %w: %v", name, ErrCanceled, context.Cause(ctx))
			default:
			}
		}
		chunk := n - total
		if chunk > ffChunk {
			chunk = ffChunk
		}
		ran := e.FastForward(chunk, obs)
		total += ran
		if ran == 0 {
			break
		}
	}
	return total, nil
}

// measSetup is the run-wide context shared by every point measurement.
type measSetup struct {
	name        string
	prog        *isa.Program
	cfg         Config // Obs already nil, MaxCycles already defaulted
	intervalLen uint64
	coldIv      int
	workers     int
	crashDir    string
}

// measPoint is one SimPoint's measurement input: its checkpoint plus the
// functionally warmed microarchitectural state — either live structures
// (cache-off path: clones made during the checkpoint pass) or an artifact
// point (cached path: each worker clones the lazily decoded prototypes).
type measPoint struct {
	interval int
	weight   float64
	warm     uint64 // cycle-accurate warmup insts between checkpoint and interval
	ck       *emu.Checkpoint
	pred     bpred.Predictor  // live, or nil to clone from src
	hier     *cache.Hierarchy // live, or nil to clone from src
	src      *ckptPoint
}

// pointMeas is one point's measurement output: the reported PointResult plus
// the raw counters the weighted reconstruction needs. Aggregation stays a
// separate serial pass in interval order so the floating-point reduction is
// identical for every worker count.
type pointMeas struct {
	pr           PointResult
	cond, qp, qm uint64 // conditional branches, queue preds/misps in the window
	cache        cache.Stats
}

// measurePoint resumes one SimPoint's checkpoint into a timing machine,
// runs the cycle-accurate warmup, and measures the interval.
func measurePoint(ctx context.Context, s *measSetup, mp *measPoint) (pointMeas, error) {
	cfg := s.cfg
	pred, hier := mp.pred, mp.hier
	if pred == nil || hier == nil {
		pp, ph, err := mp.src.protos(cfg)
		if err != nil {
			return pointMeas{}, fmt.Errorf("sim: %s: SimPoint %d %v", s.name, mp.interval, err)
		}
		pred, hier = pp.ClonePredictor(), ph.Clone()
	}
	em, mem := mp.ck.Resume(s.prog)
	m := newMachine(cfg, mem, em, pred, hier)
	m.done = ctx.Done()
	// Each measured point gets its own lockstep oracle, resumed from the
	// same checkpoint on a third isolated materialization; it covers the
	// warmup and measured phases alike.
	var orc *check.Oracle
	if cfg.Lockstep {
		orc = check.NewOracleAt(s.prog, mp.ck)
	}
	m.setupGuards(orc)
	fail := func(phase string, outcome runOutcome) error {
		switch outcome {
		case runStalled:
			return fmt.Errorf("sim: %s: SimPoint %d %s: %w: %v",
				s.name, mp.interval, phase, ErrStall, m.failure)
		case runCheckFailed:
			return fmt.Errorf("sim: %s: SimPoint %d %s: %w: %v",
				s.name, mp.interval, phase, ErrCheck, m.failure)
		case runCanceled:
			return fmt.Errorf("sim: %s: SimPoint %d %s: %w: %v",
				s.name, mp.interval, phase, ErrCanceled, context.Cause(ctx))
		default:
			return fmt.Errorf("sim: %s: SimPoint %d %s did not finish within %d cycles: %w",
				s.name, mp.interval, phase, cfg.MaxCycles, ErrLivelock)
		}
	}
	warmed := uint64(0)
	measLen := s.intervalLen
	// The cold-start point (interval 0) skips warmup and measures the
	// whole cold prefix: cold behavior is exactly what it is there to
	// measure.
	if mp.interval == 0 {
		measLen = uint64(s.coldIv) * s.intervalLen
	} else if mp.warm > 0 {
		if out := m.run(mp.warm, cfg.MaxCycles); out != runDone {
			return pointMeas{}, fail("warmup", out)
		}
		warmed = m.mt.Stats.Retired
		m.resetStats()
	}
	if out := m.run(measLen, cfg.MaxCycles); out != runDone {
		return pointMeas{}, fail("measure", out)
	}
	if orc != nil {
		// Sampled points are instruction-bounded, never final: this only
		// reports a divergence latched after the last guard poll.
		if cerr := orc.Finish(mem, false); cerr != nil {
			return pointMeas{}, fmt.Errorf("sim: %s: SimPoint %d: %w: %v",
				s.name, mp.interval, ErrCheck, cerr)
		}
	}
	st := &m.mt.Stats
	pr := PointResult{
		Interval:  mp.interval,
		Weight:    mp.weight,
		StartInst: uint64(mp.interval) * s.intervalLen,
		Warmed:    warmed,
		Measured:  st.Retired,
		Cycles:    st.Cycles,
	}
	if st.Cycles > 0 && st.Retired > 0 {
		pr.IPC = float64(st.Retired) / float64(st.Cycles)
		pr.MPKI = float64(st.Mispredicts) * 1000 / float64(st.Retired)
	}
	return pointMeas{pr: pr, cond: st.CondBranches, qp: st.QueuePreds, qm: st.QueueMisps, cache: m.hier.Stats}, nil
}

// measurePointSafe is measurePoint with per-point fault containment: a panic
// inside this point's machine is recovered into an ErrPanic error naming the
// interval, with a crash report dumped, and sibling workers are unaffected.
// Mandatory on pool goroutines — an uncontained panic there kills the
// process, bypassing SampledRunCtx's recover.
func measurePointSafe(ctx context.Context, s *measSetup, mp *measPoint) (pm pointMeas, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		rep := &check.Report{
			Name:   s.name,
			Config: fmt.Sprintf("SimPoint interval %d (sampled measure)", mp.interval),
			Err:    fmt.Sprint(r),
			Stack:  string(debug.Stack()),
			Prog:   s.prog,
		}
		detail := ""
		if path, derr := check.Dump(s.crashDir, rep); derr == nil {
			detail = " (repro dumped to " + path + ")"
		}
		pm = pointMeas{}
		err = fmt.Errorf("sim: %s: SimPoint interval %d: %w: %v%s", s.name, mp.interval, ErrPanic, r, detail)
	}()
	return measurePoint(ctx, s, mp)
}

// measureAll measures every point on up to s.workers pool workers (ForEach;
// serially on this goroutine when s.workers <= 1), honoring ctx between
// points. Results come back indexed by point so the caller's aggregation
// order never depends on scheduling. One failure cancels the siblings (they
// stop at their next guard poll) and every point not yet started; on
// failure the first real error in interval order wins, and cancellation
// errors only surface when nothing else failed. ForEach returns only after
// every started point has, so no goroutine outlives this call.
func measureAll(ctx context.Context, s *measSetup, pts []measPoint) ([]pointMeas, error) {
	meas := make([]pointMeas, len(pts))
	errs := make([]error, len(pts))
	mctx, mcancel := context.WithCancelCause(ctx)
	defer mcancel(nil)
	ForEach(len(pts), s.workers, func(i int) {
		if mctx.Err() != nil {
			errs[i] = fmt.Errorf("sim: %s: SimPoint %d dispatch: %w: %v",
				s.name, pts[i].interval, ErrCanceled, context.Cause(mctx))
			return
		}
		if meas[i], errs[i] = measurePointSafe(mctx, s, &pts[i]); errs[i] != nil {
			mcancel(errs[i])
		}
	})
	var firstErr error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if firstErr == nil {
			firstErr = e
		}
		if !errors.Is(e, ErrCanceled) {
			return nil, e
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return meas, nil
}

// measureAndWeigh runs phases 4 and 5: measure every point (serially or in
// parallel) and reconstruct the whole-run Result. The weighted reduction is
// a serial pass in interval order over the per-point outputs, keeping the
// floating-point result bit-identical for every worker count.
func measureAndWeigh(ctx context.Context, s *measSetup, pts []measPoint, total uint64, intervals int, halted bool) (Result, error) {
	meas, err := measureAll(ctx, s, pts)
	if err != nil {
		return Result{}, err
	}
	report := &SampleReport{TotalInsts: total, IntervalLen: s.intervalLen, Intervals: intervals}
	var (
		wSum               float64
		invW, mpkiW, condW float64
		qpW, qmW           float64
		sumCache           cache.Stats
	)
	for i := range meas {
		pm := &meas[i]
		pr := pm.pr
		if pr.Cycles > 0 && pr.Measured > 0 {
			w := pr.Weight
			wSum += w
			// Cycles add, IPC doesn't: each point stands for w*total
			// instructions costing w*total/IPC cycles, so the whole-run IPC
			// is the weighted harmonic mean of the per-point IPCs.
			invW += w / pr.IPC
			mpkiW += w * pr.MPKI
			condW += w * float64(pm.cond) / float64(pr.Measured)
			qpW += w * float64(pm.qp) / float64(pr.Measured)
			qmW += w * float64(pm.qm) / float64(pr.Measured)
		}
		addCacheStats(&sumCache, &pm.cache)
		report.Points = append(report.Points, pr)
	}
	if wSum == 0 {
		return Result{}, fmt.Errorf("sim: %s: no SimPoint produced measurable cycles", s.name)
	}
	ipc := wSum / invW
	return Result{
		Retired:      total,
		Cycles:       uint64(float64(total)/ipc + 0.5),
		CondBranches: uint64(condW/wSum*float64(total) + 0.5),
		Mispredicts:  uint64(mpkiW / wSum * float64(total) / 1000.0),
		QueuePreds:   uint64(qpW/wSum*float64(total) + 0.5),
		QueueMisps:   uint64(qmW/wSum*float64(total) + 0.5),
		Halted:       halted,
		Cache:        sumCache,
		Sampled:      report,
	}, nil
}

// newMeasSetup assembles the shared measurement context.
func newMeasSetup(spec Spec, p *isa.Program, cfg Config, sc SampleConfig, intervalLen uint64, nIv int) *measSetup {
	cfg.Obs = nil
	dir := sc.CrashDir
	if dir == "" {
		dir = MatrixOptions{}.crashDir()
	}
	return &measSetup{
		name:        spec.Name,
		prog:        p,
		cfg:         cfg,
		intervalLen: intervalLen,
		coldIv:      coldIntervals(nIv),
		workers:     sc.Workers,
		crashDir:    dir,
	}
}

// measureArtifact is the cached path: phases 4–5 driven from a decoded
// artifact. Each point clones the artifact's lazily decoded state prototypes
// and resumes its checkpoint copy-on-write, so the (immutable) artifact is
// safely shared by concurrent workers and concurrent runs.
func measureArtifact(ctx context.Context, spec Spec, p *isa.Program, cfg Config, sc SampleConfig, art *ckptArtifact) (Result, error) {
	s := newMeasSetup(spec, p, cfg, sc, art.intervalLen, art.intervals)
	pts := make([]measPoint, len(art.points))
	for i := range art.points {
		ap := &art.points[i]
		pts[i] = measPoint{
			interval: ap.interval,
			weight:   ap.weight,
			warm:     ap.warm,
			ck:       art.cks[i],
			src:      ap,
		}
	}
	return measureAndWeigh(ctx, s, pts, art.totalInsts, art.intervals, art.halted)
}

func sampledRun(ctx context.Context, spec Spec, cfg Config, sc SampleConfig) (Result, error) {
	if cfg.Obs != nil {
		return Result{}, fmt.Errorf("sim: SampledRun does not support Config.Obs")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 2_000_000_000
	}
	sc = sc.withDefaults()
	profileCap := sc.MaxProfileInsts
	if cfg.MaxInsts > 0 && cfg.MaxInsts < profileCap {
		profileCap = cfg.MaxInsts
	}

	w := spec.Build()
	if w.Mem == nil {
		return Result{}, fmt.Errorf("sim: %s: built workload has nil memory", spec.Name)
	}

	// --- 0. checkpoint cache probe ---
	// The key covers everything the functional passes depend on: workload
	// content, sampling knobs, and the predictor/cache configuration whose
	// warmed state the artifact carries. Mode and the check knobs only
	// affect measurement, so base/phelps cells of one workload share one
	// artifact. The hash must see the freshly built workload (pristine
	// memory image), hence hashing before the profile pass consumes w.
	var key CkptKey
	if sc.Ckpts != nil {
		key = ckptKeyFor(HashWorkload(w), cfg, sc, profileCap)
		art, lerr := sc.Ckpts.Load(ctx, key)
		if lerr != nil {
			return Result{}, fmt.Errorf("sim: %s (checkpoint load): %w: %v", spec.Name, ErrCanceled, lerr)
		}
		if art != nil {
			if art.fullRun {
				// The workload was below MinIntervals when profiled: the
				// artifact is just a marker that a full run is the answer
				// (skipping the re-profile), and w is still pristine.
				res, err := RunCtx(ctx, w, cfg)
				res.Sampled = &SampleReport{FullRun: true, TotalInsts: art.totalInsts, IntervalLen: art.intervalLen, Intervals: art.intervals}
				return res, err
			}
			return measureArtifact(ctx, spec, w.Prog, cfg, sc, art)
		}
	}

	// --- 1. profile: functional pass recording the basic-block stream ---
	// BBVs are collected live at chunkLen grain (or directly at the caller's
	// interval) rather than via an intermediate block stream; auto-sized
	// intervals are merged from whole chunks after the total is known.
	grain := sc.IntervalLen
	if grain == 0 {
		grain = chunkLen
	}
	coll := simpoint.NewBBVCollector(grain)
	e := emu.New(w.Prog, w.Mem)
	total, ferr := fastForwardCtx(ctx, spec.Name, e, profileCap, &emu.FFObserver{Block: coll.ObserveBlock})
	if ferr != nil {
		return Result{}, ferr
	}
	if total == 0 {
		return Result{}, fmt.Errorf("sim: %s: empty profile", spec.Name)
	}
	// The profile pass reached HALT: verify it, catching functional bugs
	// before they hide inside weighted estimates.
	if e.Halted && w.Verify != nil {
		if verr := w.Verify(w.Mem); verr != nil {
			return Result{}, fmt.Errorf("sim: %s (functional profile): %w: %v", spec.Name, ErrVerify, verr)
		}
	}

	coll.Flush()
	intervalLen := sc.IntervalLen
	intervals := coll.Intervals()
	if intervalLen == 0 {
		intervalLen = autoInterval(total)
		intervals = simpoint.MergeIntervals(intervals, int(intervalLen/chunkLen))
	}
	warmup := sc.WarmupInsts
	if warmup == 0 {
		warmup = intervalLen / 2
		if warmup < chunkLen {
			warmup = chunkLen
		}
	}
	if len(intervals) < sc.MinIntervals {
		// Too short to sample: a full run is cheaper than the machinery.
		// Cache that verdict so warm runs skip straight to the full run.
		if sc.Ckpts != nil {
			art := &ckptArtifact{fullRun: true, totalInsts: total, intervalLen: intervalLen, intervals: len(intervals), halted: e.Halted}
			if serr := sc.Ckpts.Store(ctx, key, art, appendArtifact(nil, key, art)); serr != nil {
				return Result{}, fmt.Errorf("sim: %s (checkpoint store): %w: %v", spec.Name, ErrCanceled, serr)
			}
		}
		res, err := RunCtx(ctx, spec.Build(), cfg)
		res.Sampled = &SampleReport{FullRun: true, TotalInsts: total, IntervalLen: intervalLen, Intervals: len(intervals)}
		return res, err
	}

	// --- 2. pick SimPoints ---
	// The first coldIv intervals are one mandatory sample point, measured
	// contiguously from the true initial state without warmup. Their BBVs
	// usually match later intervals (same code), but their performance is the
	// cold-start transient — empty caches, untrained predictor — which
	// typically stretches over several intervals and is invisible to BBV
	// clustering; clustered together, a cold representative can stand in for
	// the whole run (or a warm one hide the cold phase). Only the remainder
	// is clustered and sampled.
	nIv := len(intervals)
	coldIv := coldIntervals(nIv)
	points := simpoint.Pick(intervals[coldIv:], sc.K, sc.Seed)
	scale := float64(nIv-coldIv) / float64(nIv)
	byStart := make([]simpoint.SimPoint, 0, len(points)+1)
	byStart = append(byStart, simpoint.SimPoint{Interval: 0, Weight: float64(coldIv) / float64(nIv)})
	for _, sp := range points {
		byStart = append(byStart, simpoint.SimPoint{Interval: sp.Interval + coldIv, Weight: sp.Weight * scale})
	}
	for i := 1; i < len(byStart); i++ { // insertion sort by interval index
		for j := i; j > 0 && byStart[j].Interval < byStart[j-1].Interval; j-- {
			byStart[j], byStart[j-1] = byStart[j-1], byStart[j]
		}
	}

	// --- 3. checkpoint pass: fast-forward once, warming microarch state ---
	w2 := spec.Build()
	e2 := emu.New(w2.Prog, w2.Mem)
	type prepared struct {
		sp   simpoint.SimPoint
		ck   *emu.Checkpoint
		pred bpred.Predictor
		hier *cache.Hierarchy
		warm uint64 // cycle-accurate warmup insts between checkpoint and interval
	}
	preps := make([]prepared, 0, len(byStart))
	pos := uint64(0) // instructions executed so far in this pass

	// Continuous mode (FuncWarmInsts == 0): one predictor and hierarchy
	// train on the whole prefix, on a pseudo-clock, and are cloned at each
	// checkpoint so every point starts from the state a full run would have
	// accumulated. Quiesce clears the clock-relative MSHR bookkeeping; the
	// tag, replacement, and prefetcher state is what carries over.
	continuous := sc.FuncWarmInsts == 0
	var (
		warmPred bpred.Predictor
		warmHier *cache.Hierarchy
		warmObs  *emu.FFObserver
		cacheObs *emu.FFObserver
		tclk     uint64
	)
	// Predictor and I-cache state saturate within a few thousand
	// instructions (the code footprint is tiny next to the data footprint),
	// so training them over the whole prefix buys nothing — the far part of
	// each segment warms the data hierarchy only (cacheObs) and the
	// predictor plus instruction fetch train over the last predWindow
	// instructions before each checkpoint. Data-cache state has run-long
	// memory and is warmed continuously.
	predWindow := 2 * intervalLen
	if continuous {
		warmPred = makePredictor(cfg.Predictor)
		warmHier = cache.New(cfg.Cache)
		warmObs = &emu.FFObserver{
			Branch: func(pc uint64, taken bool) { warmPred.PredictAndTrain(pc, taken) },
			Load:   func(pc, addr uint64, size int) { warmHier.Load(pc, addr, tclk); tclk += 4 },
			Store:  func(addr uint64, size int) { warmHier.Store(addr, tclk); tclk += 4 },
			Block:  func(head, n uint64) { warmHier.FetchInst(head, tclk); tclk += n },
		}
		cacheObs = &emu.FFObserver{
			Load:  warmObs.Load,
			Store: warmObs.Store,
			Block: func(head, n uint64) { tclk += n },
		}
	}
	clonePred := func(p bpred.Predictor) bpred.Predictor {
		if c, ok := p.(bpred.Cloner); ok {
			return c.ClonePredictor()
		}
		return makePredictor(cfg.Predictor) // untrained fallback
	}

	for _, sp := range byStart {
		start := uint64(sp.Interval) * intervalLen
		// Checkpoint warmup instructions BEFORE the interval, so the
		// cycle-accurate warmup lands the measured window exactly on
		// [start, start+intervalLen) — the interval the weight stands for.
		// The cold-start point checkpoints at 0 and measures from there.
		ckAt := start
		if sp.Interval != 0 {
			if warmup < start {
				ckAt = start - warmup
			} else {
				ckAt = 0
			}
		}
		var p prepared
		if continuous {
			if ckAt > pos+predWindow {
				if _, err := fastForwardCtx(ctx, spec.Name, e2, ckAt-predWindow-pos, cacheObs); err != nil {
					return Result{}, err
				}
				pos = ckAt - predWindow
			}
			if ckAt > pos {
				if _, err := fastForwardCtx(ctx, spec.Name, e2, ckAt-pos, warmObs); err != nil {
					return Result{}, err
				}
				pos = ckAt
			}
			p = prepared{sp: sp, pred: clonePred(warmPred), hier: warmHier.Clone()}
		} else {
			// Window mode: plain fast-forward to the warming window, then a
			// fresh predictor/hierarchy over the last FuncWarmInsts.
			warmFrom := uint64(0)
			if sc.FuncWarmInsts < ckAt {
				warmFrom = ckAt - sc.FuncWarmInsts
			}
			if warmFrom < pos {
				warmFrom = pos
			}
			if warmFrom > pos {
				if _, err := fastForwardCtx(ctx, spec.Name, e2, warmFrom-pos, nil); err != nil {
					return Result{}, err
				}
				pos = warmFrom
			}
			p = prepared{sp: sp, pred: makePredictor(cfg.Predictor), hier: cache.New(cfg.Cache)}
			if ckAt > pos {
				var t uint64
				pred, hier := p.pred, p.hier
				if _, err := fastForwardCtx(ctx, spec.Name, e2, ckAt-pos, &emu.FFObserver{
					Branch: func(pc uint64, taken bool) { pred.PredictAndTrain(pc, taken) },
					Load:   func(pc, addr uint64, size int) { hier.Load(pc, addr, t); t += 4 },
					Store:  func(addr uint64, size int) { hier.Store(addr, t); t += 4 },
					Block:  func(head, n uint64) { hier.FetchInst(head, t); t += n },
				}); err != nil {
					return Result{}, err
				}
				pos = ckAt
			}
		}
		p.warm = start - ckAt
		p.hier.Quiesce()
		p.hier.ResetStats()
		ck, err := e2.Checkpoint()
		if err != nil {
			return Result{}, fmt.Errorf("sim: %s: checkpoint at inst %d: %v", spec.Name, pos, err)
		}
		p.ck = ck
		preps = append(preps, p)
	}

	// --- 4+5. measure and weigh ---
	if sc.Ckpts != nil {
		// Cold run with the cache enabled: serialize the artifact, store it,
		// and measure from the DECODED form. Warm runs decode the same bytes,
		// so cold and warm results are bit-identical by construction (the
		// leaf codecs' round-trip exactness makes cache-off identical too).
		art := &ckptArtifact{totalInsts: total, intervalLen: intervalLen, intervals: nIv, halted: e.Halted}
		for i := range preps {
			p := &preps[i]
			pc, ok := p.pred.(bpred.StateCodec)
			if !ok {
				return Result{}, fmt.Errorf("sim: %s: predictor kind %d is not serializable for the checkpoint cache", spec.Name, cfg.Predictor)
			}
			art.points = append(art.points, ckptPoint{
				interval: p.sp.Interval,
				weight:   p.sp.Weight,
				warm:     p.warm,
				pred:     pc.AppendState(nil),
				hier:     p.hier.AppendState(nil),
			})
			art.cks = append(art.cks, p.ck)
		}
		blob := appendArtifact(nil, key, art)
		decoded, derr := decodeArtifact(blob, key)
		if derr != nil {
			return Result{}, fmt.Errorf("sim: %s: checkpoint artifact round-trip: %v", spec.Name, derr)
		}
		if serr := sc.Ckpts.Store(ctx, key, decoded, blob); serr != nil {
			return Result{}, fmt.Errorf("sim: %s (checkpoint store): %w: %v", spec.Name, ErrCanceled, serr)
		}
		return measureArtifact(ctx, spec, w2.Prog, cfg, sc, decoded)
	}
	s := newMeasSetup(spec, w2.Prog, cfg, sc, intervalLen, nIv)
	pts := make([]measPoint, len(preps))
	for i := range preps {
		p := &preps[i]
		pts[i] = measPoint{
			interval: p.sp.Interval,
			weight:   p.sp.Weight,
			warm:     p.warm,
			ck:       p.ck,
			pred:     p.pred,
			hier:     p.hier,
		}
	}
	return measureAndWeigh(ctx, s, pts, total, nIv, e.Halted)
}

// addCacheStats accumulates b into a field-by-field.
func addCacheStats(a, b *cache.Stats) {
	a.L1IAccesses += b.L1IAccesses
	a.L1IMisses += b.L1IMisses
	a.L1DAccesses += b.L1DAccesses
	a.L1DMisses += b.L1DMisses
	a.L2Accesses += b.L2Accesses
	a.L2Misses += b.L2Misses
	a.L3Accesses += b.L3Accesses
	a.L3Misses += b.L3Misses
	a.PrefIssued += b.PrefIssued
	a.PrefUseful += b.PrefUseful
	a.MSHRStallCycles += b.MSHRStallCycles
}
