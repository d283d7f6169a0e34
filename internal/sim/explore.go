package sim

// Model-triaged design-space exploration (see DESIGN.md · Learned fast-path
// model). Cycle-accurate evaluation of the Phelps design space costs seconds
// per cell even on the quick workloads; the explore pipeline spends that
// budget only where it pays:
//
//  1. enumerate: ExploreSpace generates a few hundred configurations
//     (window size × pipeline depth × predictor × Phelps engine knobs),
//     each with a numeric knob encoding and a hardware-budget score.
//  2. profile:   one cheap functional pass per workload extracts features —
//     load/store/branch densities, stride locality, and the SimPoint
//     interval-BBV phase summary (simpoint.IntervalFeatures).
//  3. anchor:    a small budget-stratified anchor set of configurations is
//     cycle-simulated on every workload (RunConfigCellCtx, the same
//     containment path as the matrix).
//  4. train:     perfmodel.Train fits IPC and MPKI boosted-tree models on
//     the anchor cells; samples are canonicalized (workload-major, grid
//     order) so the serialized model is byte-identical run to run.
//  5. score:     the whole grid is scored through the model — microseconds
//     per cell against seconds of simulation.
//  6. frontier:  the predicted IPC-vs-budget Pareto frontier is selected
//     and only those configurations are cycle-simulated for ground truth.
//  7. validate:  predicted-vs-measured MAPE and Spearman rank correlation
//     over the measured holdout (frontier cells the model never trained
//     on) are recorded in the report — the falsifiability gate. Optional
//     exhaustive mode simulates the entire grid and records how close the
//     frontier's best configuration came to the true best.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"phelps/internal/emu"
	"phelps/internal/perfmodel"
	"phelps/internal/simpoint"
	"phelps/internal/stats"
)

// ExplorePoint is one generated configuration of the explore grid: a
// human-readable name, the numeric knob encoding the model trains on, a
// hardware-budget score, and a builder (epoch-parameterized like the config
// registry, since Phelps epochs scale with the workload).
type ExplorePoint struct {
	Name   string
	Knobs  []float64 // in ExploreKnobNames order
	Budget float64
	build  func(epoch uint64) Config
}

// Config materializes the point for a workload's epoch length.
func (p *ExplorePoint) Config(epoch uint64) Config { return p.build(epoch) }

// ExploreKnobNames returns the labels of ExplorePoint.Knobs, in order. They
// are the configuration half of the model's feature vector (the workload
// half is exploreWorkloadFeatureNames).
func ExploreKnobNames() []string {
	return []string{
		"cfg_rob", "cfg_iq", "cfg_lq", "cfg_prf", "cfg_pipeline_depth",
		"cfg_predictor", "cfg_phelps", "cfg_threshold_divisor",
		"cfg_pred_queue_depth", "cfg_budget",
	}
}

// predictorBudget scores a predictor's storage in register-entry
// equivalents: bimodal is a 16K-counter table (~4 KB), gshare a 32K-counter
// table (~8 KB), TAGE a multi-table ~16 KB budget. Coarse by design — the
// budget axis only needs a consistent ordering for the Pareto sweep.
func predictorBudget(kind PredictorKind) float64 {
	switch kind {
	case PredBimodal:
		return 512
	case PredGshare:
		return 1024
	default:
		return 2048
	}
}

// explorePointFor assembles one grid point from its knob values.
func explorePointFor(rob, depth int, pred PredictorKind, phelps bool, thresholdDiv uint64, queueDepth int) ExplorePoint {
	predName := map[PredictorKind]string{PredBimodal: "bimodal", PredGshare: "gshare", PredTAGE: "tage"}[pred]
	name := fmt.Sprintf("rob%d-d%d-%s", rob, depth, predName)
	mech := "base"
	if phelps {
		mech = fmt.Sprintf("phelps-t%d-q%d", thresholdDiv, queueDepth)
	}
	name += "-" + mech

	// Materialize once to read the scaled window sizes for knobs and budget;
	// build re-derives the same Config per workload epoch.
	probe := DefaultConfig()
	scaleWindow(&probe, rob, depth)
	phelpsCost := 0.0
	if phelps {
		ph := PhelpsConfig(0).Phelps
		phelpsCost = float64(ph.DBTSize) + float64(ph.SpecCacheSets*ph.SpecCacheWays) + float64(queueDepth)*8
	}
	budget := float64(probe.Core.ROB+probe.Core.IQ+probe.Core.LQ+probe.Core.SQ+probe.Core.PRF) +
		predictorBudget(pred) + phelpsCost

	phelpsKnob := 0.0
	tdKnob, qdKnob := 0.0, 0.0
	if phelps {
		phelpsKnob = 1
		tdKnob, qdKnob = float64(thresholdDiv), float64(queueDepth)
	}
	knobs := []float64{
		float64(probe.Core.ROB), float64(probe.Core.IQ), float64(probe.Core.LQ),
		float64(probe.Core.PRF), float64(depth), float64(pred),
		phelpsKnob, tdKnob, qdKnob, budget,
	}
	build := func(epoch uint64) Config {
		var cfg Config
		if phelps {
			cfg = PhelpsConfig(epoch)
			cfg.Phelps.ThresholdDivisor = thresholdDiv
			cfg.Phelps.PredQueueDepth = queueDepth
		} else {
			cfg = DefaultConfig()
		}
		cfg.Predictor = pred
		scaleWindow(&cfg, rob, depth)
		return cfg
	}
	return ExplorePoint{Name: name, Knobs: knobs, Budget: budget, build: build}
}

// ExploreSpace enumerates the committed explore grid: 4 window sizes × 3
// pipeline depths × 3 predictors × (baseline + 6 Phelps engine variants) =
// 252 configurations, in deterministic grid order.
func ExploreSpace() []ExplorePoint {
	robs := []int{160, 320, 632, 1024}
	depths := []int{11, 15, 19}
	preds := []PredictorKind{PredBimodal, PredGshare, PredTAGE}
	type mech struct {
		phelps     bool
		threshold  uint64
		queueDepth int
	}
	mechs := []mech{{false, 0, 0}}
	for _, td := range []uint64{1000, 2000, 4000} {
		for _, qd := range []int{16, 32} {
			mechs = append(mechs, mech{true, td, qd})
		}
	}
	var out []ExplorePoint
	for _, rob := range robs {
		for _, depth := range depths {
			for _, pred := range preds {
				for _, m := range mechs {
					out = append(out, explorePointFor(rob, depth, pred, m.phelps, m.threshold, m.queueDepth))
				}
			}
		}
	}
	return out
}

// ExploreWorkloads returns the quick delinquent micro-workloads the
// committed explore space is evaluated on: the delinquent-load family whose
// behavior the Phelps knobs actually move.
func ExploreWorkloads() []Spec {
	var out []Spec
	for _, s := range MicroSpecs(true) {
		switch s.Name {
		case "delinquent", "chase", "chase_nested":
			out = append(out, s)
		}
	}
	return out
}

// exploreWorkloadFeatureNames labels the workload half of the feature
// vector: functional-profile densities plus the simpoint BBV phase summary.
func exploreWorkloadFeatureNames() []string {
	names := []string{
		"wl_log2_insts", "wl_branch_density", "wl_taken_frac",
		"wl_load_density", "wl_store_density", "wl_log2_data_lines",
		"wl_stride_local", "wl_stride_repeat",
	}
	return append(names, simpoint.FeatureNames()...)
}

// exploreProfileCap bounds the functional feature pass (the quick workloads
// are far below it).
const exploreProfileCap = 200_000_000

// exploreWorkloadFeatures runs the functional profile pass for one workload:
// a FastForward to HALT with an observer counting branch/load/store
// densities and load-stride locality, collecting interval BBVs live for the
// simpoint phase summary. Returns the feature vector (in
// exploreWorkloadFeatureNames order) and the profiled instruction count.
func exploreWorkloadFeatures(ctx context.Context, spec Spec) ([]float64, uint64, error) {
	w := spec.Build()
	if w.Mem == nil {
		return nil, 0, fmt.Errorf("sim: %s: built workload has nil memory", spec.Name)
	}
	coll := simpoint.NewBBVCollector(chunkLen)
	var branches, taken, loads, stores uint64
	var strideLocal, strideRepeat uint64
	var lastAddr uint64
	var lastDelta int64
	haveLast, haveDelta := false, false
	lines := make(map[uint64]struct{})
	obs := &emu.FFObserver{
		Branch: func(pc uint64, t bool) {
			branches++
			if t {
				taken++
			}
		},
		Load: func(pc, addr uint64, size int) {
			loads++
			lines[addr>>6] = struct{}{}
			if haveLast {
				delta := int64(addr) - int64(lastAddr)
				if delta >= -64 && delta <= 64 {
					strideLocal++
				}
				if haveDelta && delta == lastDelta {
					strideRepeat++
				}
				lastDelta = delta
				haveDelta = true
			}
			lastAddr = addr
			haveLast = true
		},
		Store: func(addr uint64, size int) {
			stores++
			lines[addr>>6] = struct{}{}
		},
		Block: coll.ObserveBlock,
	}
	e := emu.New(w.Prog, w.Mem)
	total, err := fastForwardCtx(ctx, spec.Name, e, exploreProfileCap, obs)
	if err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("sim: %s: empty explore profile", spec.Name)
	}
	coll.Flush()
	ivs := simpoint.MergeIntervals(coll.Intervals(), int(autoInterval(total)/chunkLen))
	bbv := simpoint.IntervalFeatures(ivs)

	fi := float64(total)
	frac := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	x := []float64{
		math.Log2(fi), frac(branches, total), frac(taken, branches),
		frac(loads, total), frac(stores, total),
		math.Log2(float64(len(lines)) + 1), frac(strideLocal, loads), frac(strideRepeat, loads),
	}
	return append(x, bbv.Vector()...), total, nil
}

// ExploreOptions tunes RunExplore. The zero value runs the committed space
// on the quick delinquent workloads.
type ExploreOptions struct {
	// Space overrides the config grid (tests use a tiny one). Nil means
	// ExploreSpace().
	Space []ExplorePoint
	// Workloads overrides the workload set. Nil means ExploreWorkloads().
	Workloads []Spec
	// Anchors is the cycle-simulated training-set size in configurations
	// (0 = ~1/10 of the space, at least 8), budget-stratified across the
	// grid.
	Anchors int
	// MaxFrontier thins the predicted Pareto frontier to at most this many
	// configurations (0 = 24), keeping the extremes and the best-predicted
	// point.
	MaxFrontier int
	// Exhaustive additionally cycle-simulates every non-frontier cell to
	// record how close the frontier's best came to the true best (the
	// validation mode; expensive by design).
	Exhaustive bool
	// Model overrides the trainer hyperparameters.
	Model perfmodel.Config
	// CrashDir receives crash dumps from contained cell panics (see
	// MatrixOptions.CrashDir).
	CrashDir string
}

// ExploreFrontierPoint is one measured configuration of the predicted
// Pareto frontier.
type ExploreFrontierPoint struct {
	Config   string  `json:"config"`
	Budget   float64 `json:"budget"`
	PredIPC  float64 `json:"pred_ipc"` // geomean across workloads
	MeasIPC  float64 `json:"meas_ipc"`
	PredMPKI float64 `json:"pred_mpki"`
	MeasMPKI float64 `json:"meas_mpki"`
	Anchor   bool    `json:"anchor,omitempty"` // was in the training set
}

// ExploreExhaustive is the validation half of an exhaustive explore run.
type ExploreExhaustive struct {
	Cells          int     `json:"cells"`
	SimSec         float64 `json:"sim_sec"`
	SimulatedInsts uint64  `json:"simulated_insts"`
	BestConfig     string  `json:"best_config"`
	BestIPC        float64 `json:"best_ipc"`
	BestMatchPct   float64 `json:"best_match_pct"` // frontier best vs true best, percent
	MAPE           float64 `json:"mape_pct"`       // whole-space predicted-vs-measured
	Spearman       float64 `json:"spearman"`
}

// ExploreReport is RunExplore's result: the frontier table, the
// falsifiability metrics, and the cost accounting that backs the
// explore-vs-exhaustive headline numbers.
type ExploreReport struct {
	Space     int      `json:"space_configs"`
	Workloads []string `json:"workloads"`
	// TotalCells is the cell count an exhaustive sweep would simulate.
	TotalCells int `json:"total_cells"`

	AnchorConfigs   int     `json:"anchor_configs"`
	FrontierConfigs int     `json:"frontier_configs"`
	SimulatedCells  int     `json:"simulated_cells"` // anchors + frontier holdout
	SimulatedFrac   float64 `json:"simulated_frac"`  // of TotalCells

	ModelBytes int `json:"model_bytes"`
	ModelTrees int `json:"model_trees"`

	ProfileSec     float64 `json:"profile_sec"`
	AnchorSimSec   float64 `json:"anchor_sim_sec"`
	TrainSec       float64 `json:"train_sec"`
	ScoreSec       float64 `json:"score_sec"`
	FrontierSimSec float64 `json:"frontier_sim_sec"`
	// ConfigsPerSec is the model's scoring throughput over the full grid;
	// SimInstPerSec is the cycle simulator's throughput over the
	// anchor+frontier cells — the two rates whose ratio is the fast path's
	// whole point.
	ConfigsPerSec  float64 `json:"configs_per_sec"`
	SimInstPerSec  float64 `json:"sim_inst_per_sec"`
	SimulatedInsts uint64  `json:"simulated_insts"`

	// MAPE/Spearman are predicted-vs-measured over the holdout cells
	// (measured frontier cells the model never trained on; HoldoutCells
	// counts them). When the frontier is entirely inside the anchor set the
	// holdout falls back to every measured cell and HoldoutIsTrain is set.
	MAPE           float64 `json:"mape_pct"`
	Spearman       float64 `json:"spearman"`
	HoldoutCells   int     `json:"holdout_cells"`
	HoldoutIsTrain bool    `json:"holdout_is_train,omitempty"`

	// BestConfig is the measured-best frontier configuration (by geomean
	// IPC across workloads) — the design the triage recommends.
	BestConfig string  `json:"best_config"`
	BestIPC    float64 `json:"best_ipc"`

	Frontier   []ExploreFrontierPoint `json:"frontier"`
	Exhaustive *ExploreExhaustive     `json:"exhaustive,omitempty"`
}

// exploreCell identifies one (workload, config) cell by index.
type exploreCell struct {
	wl, pt int
}

// runExploreCells simulates the given cells on the pool (runCells),
// returning results indexed like cells plus the summed retired-instruction
// count. Cells fail the whole explore (a failed anchor would silently skew
// the training set).
func runExploreCells(ctx context.Context, specs []Spec, points []ExplorePoint, cells []exploreCell, opt ExploreOptions) ([]Result, uint64, error) {
	runs := make([]cellRun, len(cells))
	for i, c := range cells {
		s, p := specs[c.wl], &points[c.pt]
		runs[i] = cellRun{s, p.Name, p.Config(s.Epoch)}
	}
	results, errs := runCells(ctx, runs, MatrixOptions{CrashDir: opt.CrashDir})
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, cellError(runs[i].spec.Name, runs[i].label, err))
		}
	}
	if err := errors.Join(failed...); err != nil {
		return nil, 0, err
	}
	var insts uint64
	for i := range results {
		insts += results[i].Retired
	}
	return results, insts, nil
}

// anchorIndices picks n budget-stratified configurations: the grid sorted by
// (budget, name) and sampled at even ranks including both extremes, so the
// training set spans the budget axis end to end.
func anchorIndices(points []ExplorePoint, n int) []int {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := &points[order[a]], &points[order[b]]
		if pa.Budget != pb.Budget {
			return pa.Budget < pb.Budget
		}
		return pa.Name < pb.Name
	})
	if n >= len(points) {
		sel := append([]int(nil), order...)
		sort.Ints(sel)
		return sel
	}
	if n <= 1 {
		return []int{order[0]}
	}
	picked := make(map[int]struct{}, n)
	var sel []int
	for i := 0; i < n; i++ {
		rank := i * (len(order) - 1) / (n - 1)
		idx := order[rank]
		if _, dup := picked[idx]; !dup {
			picked[idx] = struct{}{}
			sel = append(sel, idx)
		}
	}
	sort.Ints(sel)
	return sel
}

// paretoFrontier sweeps configs in ascending (budget, name) order and keeps
// every strict improvement in predicted IPC — the predicted
// IPC-vs-hardware-budget Pareto frontier. The returned indices are in sweep
// order (ascending budget).
func paretoFrontier(points []ExplorePoint, predIPC []float64) []int {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := &points[order[a]], &points[order[b]]
		if pa.Budget != pb.Budget {
			return pa.Budget < pb.Budget
		}
		return pa.Name < pb.Name
	})
	var out []int
	best := math.Inf(-1)
	for _, idx := range order {
		if predIPC[idx] > best {
			best = predIPC[idx]
			out = append(out, idx)
		}
	}
	return out
}

// thinFrontier reduces a frontier to at most max points: the best-predicted
// point always survives, then the extremes, then evenly spaced fill — the
// triage budget is a hard cap, and within it the recommendation and the
// endpoints take priority.
func thinFrontier(frontier []int, predIPC []float64, max int) []int {
	if max <= 0 || len(frontier) <= max {
		return frontier
	}
	bestPos := 0
	for i, idx := range frontier {
		if predIPC[idx] > predIPC[frontier[bestPos]] {
			bestPos = i
		}
	}
	keep := make(map[int]struct{}, max)
	for _, p := range []int{bestPos, 0, len(frontier) - 1} {
		if len(keep) >= max {
			break
		}
		keep[p] = struct{}{}
	}
	for i := 0; len(keep) < max && i < max; i++ {
		keep[i*(len(frontier)-1)/(max-1)] = struct{}{}
	}
	pos := make([]int, 0, len(keep))
	for p := range keep {
		pos = append(pos, p)
	}
	sort.Ints(pos)
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = frontier[p]
	}
	return out
}

// geoMeanIPC folds per-workload predictions (or measurements) of one config
// into a single score.
func geoMeanIPC(vals []float64) float64 { return stats.GeoMean(vals) }

// RunExplore runs the model-triaged design-space search end to end and
// returns the explore report. Deterministic for a given option set: the
// grid, the anchor selection, the training-sample order, and the model are
// all derived without map iteration or timing dependence (wall-clock fields
// aside).
func RunExplore(ctx context.Context, opt ExploreOptions) (*ExploreReport, error) {
	points := opt.Space
	if points == nil {
		points = ExploreSpace()
	}
	specs := opt.Workloads
	if specs == nil {
		specs = ExploreWorkloads()
	}
	if len(points) == 0 || len(specs) == 0 {
		return nil, fmt.Errorf("sim: explore needs a non-empty space and workload set")
	}
	nAnchor := opt.Anchors
	if nAnchor == 0 {
		nAnchor = len(points) / 10
		if nAnchor < 8 {
			nAnchor = 8
		}
	}
	if nAnchor < 2 {
		nAnchor = 2 // the training set must span the budget axis
	}
	if nAnchor > len(points) {
		nAnchor = len(points)
	}
	maxFrontier := opt.MaxFrontier
	if maxFrontier == 0 {
		maxFrontier = 24
	}

	rep := &ExploreReport{
		Space:      len(points),
		TotalCells: len(points) * len(specs),
	}
	for _, s := range specs {
		rep.Workloads = append(rep.Workloads, s.Name)
	}

	// --- 2. profile: workload features ---
	start := time.Now()
	wlFeats := make([][]float64, len(specs))
	for i, s := range specs {
		x, _, err := exploreWorkloadFeatures(ctx, s)
		if err != nil {
			return nil, err
		}
		wlFeats[i] = x
	}
	rep.ProfileSec = time.Since(start).Seconds()

	featNames := append(exploreWorkloadFeatureNames(), ExploreKnobNames()...)
	cellX := func(wl, pt int) []float64 {
		x := make([]float64, 0, len(featNames))
		x = append(x, wlFeats[wl]...)
		return append(x, points[pt].Knobs...)
	}

	// --- 3. anchor: cycle-simulate the training set ---
	anchors := anchorIndices(points, nAnchor)
	isAnchor := make([]bool, len(points))
	for _, idx := range anchors {
		isAnchor[idx] = true
	}
	var anchorCells []exploreCell
	for wl := range specs { // workload-major: the canonical sample order
		for _, pt := range anchors {
			anchorCells = append(anchorCells, exploreCell{wl: wl, pt: pt})
		}
	}
	start = time.Now()
	anchorRes, anchorInsts, err := runExploreCells(ctx, specs, points, anchorCells, opt)
	if err != nil {
		return nil, fmt.Errorf("sim: explore anchors: %w", err)
	}
	rep.AnchorSimSec = time.Since(start).Seconds()
	rep.AnchorConfigs = len(anchors)

	// --- 4. train ---
	samples := make([]perfmodel.Sample, len(anchorCells))
	for i, c := range anchorCells {
		r := &anchorRes[i]
		samples[i] = perfmodel.Sample{X: cellX(c.wl, c.pt), IPC: r.IPC(), MPKI: r.MPKI()}
	}
	start = time.Now()
	model, err := perfmodel.Train(samples, featNames, opt.Model)
	if err != nil {
		return nil, fmt.Errorf("sim: explore training: %w", err)
	}
	rep.TrainSec = time.Since(start).Seconds()
	rep.ModelBytes = len(model.Append(nil))
	rep.ModelTrees = model.Trees()

	// --- 5. score the whole grid ---
	start = time.Now()
	predCell := make([][]float64, len(specs)) // [wl][pt] predicted IPC
	predMPKICell := make([][]float64, len(specs))
	for wl := range specs {
		predCell[wl] = make([]float64, len(points))
		predMPKICell[wl] = make([]float64, len(points))
		for pt := range points {
			x := cellX(wl, pt)
			predCell[wl][pt] = model.PredictIPC(x)
			predMPKICell[wl][pt] = model.PredictMPKI(x)
		}
	}
	predIPC := make([]float64, len(points)) // geomean across workloads
	for pt := range points {
		vals := make([]float64, len(specs))
		for wl := range specs {
			vals[wl] = predCell[wl][pt]
		}
		predIPC[pt] = geoMeanIPC(vals)
	}
	rep.ScoreSec = time.Since(start).Seconds()
	if rep.ScoreSec > 0 {
		rep.ConfigsPerSec = float64(len(points)) / rep.ScoreSec
	}

	// --- 6. frontier: measure only the predicted Pareto set ---
	frontier := thinFrontier(paretoFrontier(points, predIPC), predIPC, maxFrontier)
	rep.FrontierConfigs = len(frontier)
	var frontCells []exploreCell
	for wl := range specs {
		for _, pt := range frontier {
			if !isAnchor[pt] { // anchor cells are already measured
				frontCells = append(frontCells, exploreCell{wl: wl, pt: pt})
			}
		}
	}
	start = time.Now()
	frontRes, frontInsts, err := runExploreCells(ctx, specs, points, frontCells, opt)
	if err != nil {
		return nil, fmt.Errorf("sim: explore frontier: %w", err)
	}
	rep.FrontierSimSec = time.Since(start).Seconds()

	// measured[wl][pt] for every simulated cell.
	measured := make([]map[int]Result, len(specs))
	for wl := range specs {
		measured[wl] = make(map[int]Result, len(anchors)+len(frontier))
	}
	for i, c := range anchorCells {
		measured[c.wl][c.pt] = anchorRes[i]
	}
	for i, c := range frontCells {
		measured[c.wl][c.pt] = frontRes[i]
	}

	rep.SimulatedCells = len(anchorCells) + len(frontCells)
	rep.SimulatedFrac = float64(rep.SimulatedCells) / float64(rep.TotalCells)
	rep.SimulatedInsts = anchorInsts + frontInsts
	if simSec := rep.AnchorSimSec + rep.FrontierSimSec; simSec > 0 {
		rep.SimInstPerSec = float64(rep.SimulatedInsts) / simSec
	}

	// --- 7. validate: frontier table, holdout MAPE/Spearman, best config ---
	measGeo := func(pt int) float64 {
		vals := make([]float64, len(specs))
		for wl := range specs {
			r := measured[wl][pt]
			vals[wl] = r.IPC()
		}
		return geoMeanIPC(vals)
	}
	for _, pt := range frontier {
		fp := ExploreFrontierPoint{
			Config:  points[pt].Name,
			Budget:  points[pt].Budget,
			PredIPC: predIPC[pt],
			MeasIPC: measGeo(pt),
			Anchor:  isAnchor[pt],
		}
		predM := make([]float64, len(specs))
		measM := make([]float64, len(specs))
		for wl := range specs {
			predM[wl] = predMPKICell[wl][pt]
			r := measured[wl][pt]
			measM[wl] = r.MPKI()
		}
		fp.PredMPKI = stats.Mean(predM)
		fp.MeasMPKI = stats.Mean(measM)
		rep.Frontier = append(rep.Frontier, fp)
		if fp.MeasIPC > rep.BestIPC {
			rep.BestIPC = fp.MeasIPC
			rep.BestConfig = fp.Config
		}
	}

	// Holdout: per-cell predicted vs measured IPC on frontier cells the
	// model never trained on. Falls back to every measured cell (and says
	// so) when the frontier was swallowed by the anchor set.
	var pred, meas []float64
	for _, c := range frontCells {
		r := measured[c.wl][c.pt]
		pred = append(pred, predCell[c.wl][c.pt])
		meas = append(meas, r.IPC())
	}
	rep.HoldoutCells = len(pred)
	if len(pred) < 2 {
		rep.HoldoutIsTrain = true
		pred, meas = pred[:0], meas[:0]
		for i, c := range anchorCells {
			pred = append(pred, predCell[c.wl][c.pt])
			meas = append(meas, anchorRes[i].IPC())
		}
		rep.HoldoutCells = len(pred)
	}
	rep.MAPE = sanitize(stats.MAPE(pred, meas))
	rep.Spearman = sanitize(stats.Spearman(pred, meas))

	// --- optional exhaustive validation ---
	if opt.Exhaustive {
		var restCells []exploreCell
		for wl := range specs {
			for pt := range points {
				if _, done := measured[wl][pt]; !done {
					restCells = append(restCells, exploreCell{wl: wl, pt: pt})
				}
			}
		}
		start = time.Now()
		restRes, restInsts, err := runExploreCells(ctx, specs, points, restCells, opt)
		if err != nil {
			return nil, fmt.Errorf("sim: explore exhaustive: %w", err)
		}
		ex := &ExploreExhaustive{
			Cells:          rep.TotalCells,
			SimSec:         time.Since(start).Seconds(),
			SimulatedInsts: rep.SimulatedInsts + restInsts,
		}
		for i, c := range restCells {
			measured[c.wl][c.pt] = restRes[i]
		}
		var exPred, exMeas []float64
		for pt := range points {
			g := measGeo(pt)
			if g > ex.BestIPC {
				ex.BestIPC = g
				ex.BestConfig = points[pt].Name
			}
			for wl := range specs {
				r := measured[wl][pt]
				exPred = append(exPred, predCell[wl][pt])
				exMeas = append(exMeas, r.IPC())
			}
		}
		if ex.BestIPC > 0 {
			ex.BestMatchPct = rep.BestIPC / ex.BestIPC * 100
		}
		ex.MAPE = sanitize(stats.MAPE(exPred, exMeas))
		ex.Spearman = sanitize(stats.Spearman(exPred, exMeas))
		rep.Exhaustive = ex
	}
	return rep, nil
}

// sanitize maps NaN/Inf to 0 for JSON (encoding/json rejects them); the
// degenerate cases that produce them are already flagged by HoldoutCells.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
