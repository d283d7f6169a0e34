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
//  3. checkpoint: FastForward again, functionally warming one branch
//                 predictor and cache hierarchy continuously from
//                 instruction 0, then Checkpoint (copy-on-write memory
//                 snapshot) before each SimPoint and encode the warmed
//                 state into the point's two state blobs.
//  4. measure:    per point, decode the state blobs into a pooled
//                 predictor/hierarchy pair, Resume the checkpoint into a
//                 timing machine with that pair, run WarmupInsts
//                 cycle-accurately, reset the counters, measure the
//                 interval.
//  5. weigh:      Result rates are the weight-averaged per-point rates
//                 scaled to the profiled instruction total.
//
// Two orthogonal accelerations sit on top (see DESIGN.md · Parallel sampled
// execution + checkpoint cache). Measurement (phase 4) can run the points on
// a bounded worker pool (SampleConfig.Workers): each point already owns an
// isolated machine — a copy-on-write materialization of its checkpoint plus
// its own decoded predictor/hierarchy state — and the weighted
// reconstruction (phase 5) is aggregated serially in interval order
// afterwards, so the Result is bit-identical to a serial run. And the
// functional passes (phases 1–3) can be skipped entirely when
// SampleConfig.Ckpts holds a cached artifact for the (workload, config) key:
// the artifact carries the SimPoint list, the checkpoints, and the warmed
// predictor/hierarchy state blobs. Phases 1–3 build that same artifact
// whether the cache is on or off, and phase 4 always measures an artifact:
// a cold run measures the one it built and stores, a cache-off run the one
// it built and drops, a warm run the one it loaded. The profile pass
// (phase 1) alone is skipped when the cache holds the workload's profile.

import (
	"context"
	"errors"
	"fmt"

	"phelps/internal/cache"
	"phelps/internal/check"
	"phelps/internal/emu"
	"phelps/internal/isa"
	"phelps/internal/prog"
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
	// mandatory cold-start point covering the first intervals. 0 means 4.
	K int
	// WarmupInsts is the cycle-accurate warmup run before each measured
	// interval (counters are reset at the warmup/measure boundary). 0 means
	// max(IntervalLen/2, 2000): functional warming approximates timing
	// state, and the cycle-accurate warmup corrects it regardless of how
	// short the measured interval is.
	WarmupInsts uint64
	// Seed drives the k-means clustering (deterministic per seed). 0 means
	// DefaultSampleSeed.
	Seed uint64
	// Workers bounds how many SimPoints are measured concurrently. <= 1
	// measures serially (the default; callers that already parallelize
	// across runs, like the run matrix and the phelpsd pool, should
	// keep it). The Result is bit-identical for any worker count.
	Workers int
	// Ckpts, when non-nil, caches the product of the functional passes — the
	// SimPoint list, checkpoints, and warmed predictor/hierarchy state —
	// keyed by workload content and sample/predictor/cache configuration, so
	// repeat runs skip profiling entirely. See CkptCache.
	Ckpts *CkptCache
	// crashDir receives crash reports when the run panics (contained into
	// an ErrPanic error either way). Empty means $PHELPS_CRASH_DIR, falling
	// back to "crashes"; RunConfigCellCtx passes MatrixOptions.CrashDir.
	crashDir string
	label    string // names the run in point crash reports
}

// DefaultSampleSeed is the clustering seed a zero SampleConfig.Seed runs
// with, so seed 0 and seed DefaultSampleSeed are one run.
const DefaultSampleSeed = 42

func (sc SampleConfig) withDefaults() SampleConfig {
	if sc.K == 0 {
		sc.K = 4
	}
	if sc.Seed == 0 {
		sc.Seed = DefaultSampleSeed
	}
	return sc
}

// maxProfileInsts bounds the functional profile pass.
const maxProfileInsts = 1_000_000_000

// minIntervals is the fewest profiled intervals worth sampling; below it
// SampledRun falls back to a full Run (the workload is too short for
// fast-forwarding to pay).
const minIntervals = 4

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
	// FullRun is set when the workload was below minIntervals and SampledRun
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
	// pipeline becomes a wrapped ErrPanic instead of killing the caller.
	// Point-measurement workers carry their own recover (measurePointSafe) —
	// a panic on a pool goroutine would otherwise kill the process, not
	// reach this handler.
	sc.label = "sampled run"
	defer func() {
		if r := recover(); r != nil {
			rep := check.Report{Name: spec.Name, Config: sc.label}
			err = fmt.Errorf("sim: %s: %w", spec.Name, panicError(r, sc.crashDir, rep))
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
	name     string
	prog     *isa.Program
	cfg      Config        // Obs already nil, MaxCycles already defaulted
	art      *ckptArtifact // the points to measure, with their checkpoints
	coldIv   int
	workers  int
	crashDir string
	label    string    // the cell's configuration, or "sampled run"
	warm     *warmPool // the pairs points decode into
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

// measurePoint decodes point i's state blobs into a pooled pair, resumes
// its checkpoint into a timing machine with that pair, runs the
// cycle-accurate warmup, and measures the interval.
func measurePoint(ctx context.Context, s *measSetup, i int) (pointMeas, error) {
	cfg := s.cfg
	ap, ck := &s.art.points[i], s.art.cks[i]
	intervalLen := s.art.intervalLen
	ws := s.warm.Get().(*warmState)
	defer s.warm.Put(ws)
	if err := ap.loadInto(ws.pred, ws.hier); err != nil {
		return pointMeas{}, fmt.Errorf("sim: %s: SimPoint %d %v", s.name, ap.interval, err)
	}
	em, mem := ck.Resume(s.prog)
	m := newMachine(cfg, mem, em, ws.pred, ws.hier)
	m.done = ctx.Done()
	// Each measured point gets its own lockstep oracle, resumed from the
	// same checkpoint on a third isolated materialization; it covers the
	// warmup and measured phases alike.
	var orc *check.Oracle
	if cfg.Lockstep {
		orc = check.NewOracleAt(s.prog, ck)
	}
	m.setupGuards(orc)
	warmed := uint64(0)
	measLen := intervalLen
	// The cold-start point (interval 0) skips warmup and measures the
	// whole cold prefix: cold behavior is exactly what it is there to
	// measure.
	if ap.interval == 0 {
		measLen = uint64(s.coldIv) * intervalLen
	} else if ap.warm > 0 {
		if out := m.run(ap.warm, cfg.MaxCycles); out != runDone {
			return pointMeas{}, m.stopErr(ctx, fmt.Sprintf("%s: SimPoint %d warmup", s.name, ap.interval), out)
		}
		warmed = m.mt.Stats.Retired
		m.resetStats()
	}
	if out := m.run(measLen, cfg.MaxCycles); out != runDone {
		return pointMeas{}, m.stopErr(ctx, fmt.Sprintf("%s: SimPoint %d measure", s.name, ap.interval), out)
	}
	if orc != nil {
		// Sampled points are instruction-bounded, never final: this only
		// reports a divergence latched after the last guard poll.
		if cerr := orc.Finish(mem, false); cerr != nil {
			return pointMeas{}, fmt.Errorf("sim: %s: SimPoint %d: %w: %v",
				s.name, ap.interval, ErrCheck, cerr)
		}
	}
	st := &m.mt.Stats
	pr := PointResult{
		Interval:  ap.interval,
		Weight:    ap.weight,
		StartInst: uint64(ap.interval) * intervalLen,
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
func measurePointSafe(ctx context.Context, s *measSetup, i int) (pm pointMeas, err error) {
	defer func() {
		if r := recover(); r != nil {
			iv := s.art.points[i].interval
			rep := check.Report{Name: s.name, Prog: s.prog,
				Config: fmt.Sprintf("%s, SimPoint interval %d (sampled measure)", s.label, iv)}
			err = fmt.Errorf("sim: %s: SimPoint interval %d: %w", s.name, iv, panicError(r, s.crashDir, rep))
		}
	}()
	return measurePoint(ctx, s, i)
}

// measureAll measures every point on up to s.workers pool workers (ForEach;
// serially on this goroutine when s.workers <= 1), honoring ctx between
// points. Results come back indexed by point so the caller's aggregation
// order never depends on scheduling. One failure cancels the siblings (they
// stop at their next guard poll) and every point not yet started; on
// failure the first real error in interval order wins, and cancellation
// errors only surface when nothing else failed. ForEach returns only after
// every started point has, so no goroutine outlives this call.
func measureAll(ctx context.Context, s *measSetup) ([]pointMeas, error) {
	n := len(s.art.points)
	meas := make([]pointMeas, n)
	errs := make([]error, n)
	mctx, mcancel := context.WithCancelCause(ctx)
	defer mcancel(nil)
	ForEach(n, s.workers, func(i int) {
		if mctx.Err() != nil {
			errs[i] = fmt.Errorf("sim: %s: SimPoint %d dispatch: %w: %v",
				s.name, s.art.points[i].interval, ErrCanceled, context.Cause(mctx))
			return
		}
		if meas[i], errs[i] = measurePointSafe(mctx, s, i); errs[i] != nil {
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

// measureArtifact runs phases 4 and 5 on an artifact, just built or cached:
// measure every point (serially or in parallel) and reconstruct the
// whole-run Result. Each point decodes its state blobs into a pair taken
// from pool and resumes its checkpoint copy-on-write, so the (immutable)
// artifact is safely shared by concurrent workers and concurrent runs. The
// weighted reduction is a serial pass in interval order over the per-point
// outputs, keeping the floating-point result bit-identical for every worker
// count. A full-run marker (a workload below minIntervals) is answered by
// one complete cycle-accurate run of a fresh build instead.
func measureArtifact(ctx context.Context, spec Spec, p *isa.Program, cfg Config, sc SampleConfig, pool *warmPool, art *ckptArtifact) (Result, error) {
	if art.fullRun {
		res, err := RunCtx(ctx, spec.Build(), cfg)
		res.Sampled = &SampleReport{FullRun: true, TotalInsts: art.totalInsts, IntervalLen: art.intervalLen, Intervals: art.intervals}
		return res, err
	}
	cfg.Obs = nil
	s := &measSetup{name: spec.Name, prog: p, cfg: cfg, art: art, coldIv: coldIntervals(art.intervals),
		workers: sc.Workers, crashDir: sc.crashDir, label: sc.label, warm: pool}
	meas, err := measureAll(ctx, s)
	if err != nil {
		return Result{}, err
	}
	total := art.totalInsts
	report := &SampleReport{TotalInsts: total, IntervalLen: art.intervalLen, Intervals: art.intervals}
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
		Halted:       art.halted,
		Cache:        sumCache,
		Sampled:      report,
	}, nil
}

// storeAndMeasure measures an artifact the functional passes just built.
// With the cache on it first stores the artifact, encoded for disk and kept
// as built in memory; with it off the artifact is dropped after the
// measurement. Either way the points are measured from the artifact as
// built: a warm run decodes the stored bytes to an equal artifact (the
// codecs are exact), so cache-off, cold and warm results are bit-identical.
func storeAndMeasure(ctx context.Context, spec Spec, p *isa.Program, cfg Config, sc SampleConfig, key CkptKey, pool *warmPool, art *ckptArtifact) (Result, error) {
	if sc.Ckpts != nil {
		if serr := sc.Ckpts.Store(ctx, key, art, appendArtifact(nil, key, art)); serr != nil {
			return Result{}, fmt.Errorf("sim: %s (checkpoint store): %w: %v", spec.Name, ErrCanceled, serr)
		}
	}
	return measureArtifact(ctx, spec, p, cfg, sc, pool, art)
}

// profilePass is phase 1: a functional pass over w (which it consumes)
// collecting BBVs live at chunkLen grain, or directly at the caller's
// intervalLen, rather than via an intermediate block stream; auto-sized
// intervals are merged from whole chunks after the total is known. A pass
// that reaches HALT is verified, catching functional bugs before they hide
// inside weighted estimates.
func profilePass(ctx context.Context, name string, w *prog.Workload, intervalLen, profileCap uint64) (*ckptProfile, error) {
	grain := intervalLen
	if grain == 0 {
		grain = chunkLen
	}
	coll := simpoint.NewBBVCollector(grain)
	e := emu.New(w.Prog, w.Mem)
	total, err := fastForwardCtx(ctx, name, e, profileCap, &emu.FFObserver{Block: coll.ObserveBlock})
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("sim: %s: empty profile", name)
	}
	if e.Halted && w.Verify != nil {
		if verr := w.Verify(w.Mem); verr != nil {
			return nil, fmt.Errorf("sim: %s (functional profile): %w: %v", name, ErrVerify, verr)
		}
	}
	coll.Flush()
	p := &ckptProfile{intervals: coll.Intervals(), intervalLen: intervalLen, total: total, halted: e.Halted}
	if intervalLen == 0 {
		p.intervalLen = autoInterval(total)
		p.intervals = simpoint.MergeIntervals(p.intervals, int(p.intervalLen/chunkLen))
	}
	return p, nil
}

func sampledRun(ctx context.Context, spec Spec, cfg Config, sc SampleConfig) (Result, error) {
	if cfg.Obs != nil {
		return Result{}, fmt.Errorf("sim: SampledRun does not support Config.Obs")
	}
	if sc.K < 0 {
		return Result{}, fmt.Errorf("sim: SampleConfig.K is %d, want at least 0", sc.K)
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 2_000_000_000
	}
	sc = sc.withDefaults()
	profileCap := uint64(maxProfileInsts)
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
	var prof *ckptProfile
	if sc.Ckpts != nil {
		key = ckptKeyFor(HashWorkload(w), cfg, sc, profileCap)
		art, lerr := sc.Ckpts.Load(ctx, key)
		if lerr != nil {
			return Result{}, fmt.Errorf("sim: %s (checkpoint load): %w: %v", spec.Name, ErrCanceled, lerr)
		}
		if art != nil {
			return measureArtifact(ctx, spec, w.Prog, cfg, sc, sc.Ckpts.warmPool(cfg.Predictor, cfg.Cache), art)
		}
		prof = sc.Ckpts.profile(key.profileKey())
	}

	// --- 1. profile: functional pass collecting interval BBVs ---
	// A cached profile leaves w pristine for the checkpoint pass.
	profiled := prof == nil
	if profiled {
		var perr error
		if prof, perr = profilePass(ctx, spec.Name, w, sc.IntervalLen, profileCap); perr != nil {
			return Result{}, perr
		}
		if sc.Ckpts != nil {
			sc.Ckpts.rememberProfile(key.profileKey(), prof)
		}
	}
	total, intervalLen, intervals := prof.total, prof.intervalLen, prof.intervals
	warmup := sc.WarmupInsts
	if warmup == 0 {
		warmup = intervalLen / 2
		if warmup < chunkLen {
			warmup = chunkLen
		}
	}
	if len(intervals) < minIntervals {
		// Too short to sample: a full run is cheaper than the machinery. The
		// cached verdict sends warm runs straight to the full run.
		marker := &ckptArtifact{fullRun: true, totalInsts: total, intervalLen: intervalLen, intervals: len(intervals), halted: prof.halted}
		return storeAndMeasure(ctx, spec, w.Prog, cfg, sc, key, nil, marker)
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
	// One predictor and hierarchy train on the whole prefix, on a
	// pseudo-clock, and are encoded at each checkpoint so every point starts
	// from the state a full run would have accumulated. Quiesce clears the
	// clock-relative MSHR bookkeeping; the tag, replacement, and prefetcher
	// state is what carries over. The live hierarchy is quiesced and its
	// stats zeroed in place: neither feeds tag, replacement or prefetcher
	// state, so later warming is unchanged. The pair comes from the pool
	// points decode into (the cache's, or with the cache off one for this
	// run alone), reset to a fresh pair's state, and goes back after the
	// pass.
	if profiled {
		w = spec.Build()
	}
	e := emu.New(w.Prog, w.Mem)
	pool := sc.Ckpts.warmPool(cfg.Predictor, cfg.Cache)
	warm, werr := pool.getFresh()
	if werr != nil {
		return Result{}, fmt.Errorf("sim: %s: fresh warming state: %v", spec.Name, werr)
	}
	warmPred, warmHier := warm.pred, warm.hier
	var tclk uint64
	warmObs := &emu.FFObserver{
		Branch: func(pc uint64, taken bool) { warmPred.PredictAndTrain(pc, taken) },
		Load:   func(pc, addr uint64, size int) { warmHier.Load(pc, addr, tclk); tclk += 4 },
		Store:  func(addr uint64, size int) { warmHier.Store(addr, tclk); tclk += 4 },
		Block:  func(head, n uint64) { warmHier.FetchInst(head, tclk); tclk += n },
	}
	// Predictor and I-cache state saturate within a few thousand
	// instructions (the code footprint is tiny next to the data footprint),
	// so training them over the whole prefix buys nothing — the far part of
	// each segment warms the data hierarchy only (cacheObs) and the
	// predictor plus instruction fetch train over the last predWindow
	// instructions before each checkpoint. Data-cache state has run-long
	// memory and is warmed continuously.
	cacheObs := &emu.FFObserver{
		Load:  warmObs.Load,
		Store: warmObs.Store,
		Block: func(head, n uint64) { tclk += n },
	}
	predWindow := 2 * intervalLen
	art := &ckptArtifact{totalInsts: total, intervalLen: intervalLen, intervals: nIv, halted: prof.halted}
	pos := uint64(0) // instructions executed so far in this pass
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
		if ckAt > pos+predWindow {
			if _, err := fastForwardCtx(ctx, spec.Name, e, ckAt-predWindow-pos, cacheObs); err != nil {
				return Result{}, err
			}
			pos = ckAt - predWindow
		}
		if ckAt > pos {
			if _, err := fastForwardCtx(ctx, spec.Name, e, ckAt-pos, warmObs); err != nil {
				return Result{}, err
			}
			pos = ckAt
		}
		warmHier.Quiesce()
		warmHier.ResetStats()
		ck, err := e.Checkpoint()
		if err != nil {
			return Result{}, fmt.Errorf("sim: %s: checkpoint at inst %d: %v", spec.Name, pos, err)
		}
		art.points = append(art.points, ckptPoint{interval: sp.Interval, weight: sp.Weight, warm: start - ckAt,
			pred: stateBlob(warmPred), hier: stateBlob(warmHier)})
		art.cks = append(art.cks, ck)
	}
	pool.Put(warm)

	// --- 4+5. store, measure and weigh ---
	return storeAndMeasure(ctx, spec, w.Prog, cfg, sc, key, pool, art)
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
