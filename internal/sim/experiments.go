package sim

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"phelps/internal/check"
	"phelps/internal/core"
	"phelps/internal/cpu"
	"phelps/internal/graph"
	"phelps/internal/prog"
)

// This file is the experiment harness: it defines the workload suites and
// regenerates every table and figure of the paper's evaluation (see
// DESIGN.md's per-experiment index). Workloads are scaled down from the
// paper's 100M-instruction SimPoints to simulator-friendly sizes; epochs are
// scaled with them (EXPERIMENTS.md documents the scaling).

// Spec is one benchmark in a suite.
type Spec struct {
	Name  string
	Build func() *prog.Workload
	Epoch uint64 // Phelps/BR epoch length for this workload
}

// GapSpecs returns the GAP-suite workloads plus astar (the paper's Fig. 12
// left group). quick shrinks them for unit tests and benchmarks.
func GapSpecs(quick bool) []Spec {
	f := 1
	if quick {
		f = 2
	}
	return []Spec{
		{"bc", func() *prog.Workload {
			g := graph.Road(56/f, 56/f, 33)
			return prog.BC(g, []int{g.MainComponentSource(), 1})
		}, 30_000},
		{"bfs", func() *prog.Workload {
			g := graph.Road(96/f, 96/f, 11)
			return prog.BFS(g, g.MainComponentSource())
		}, 40_000},
		{"pr", func() *prog.Workload {
			return prog.PageRank(graph.Road(44/f, 44/f, 3), 6, 85, 100, (1<<20)/800)
		}, 40_000},
		{"cc", func() *prog.Workload {
			return prog.CC(graph.Road(48/f, 48/f, 5))
		}, 50_000},
		{"cc_sv", func() *prog.Workload {
			return prog.CCSV(graph.Road(36/f, 36/f, 9))
		}, 40_000},
		{"sssp", func() *prog.Workload {
			g := graph.Road(44/f, 44/f, 13).WithRandomWeights(5, 15)
			return prog.SSSP(g, g.N/2, 60)
		}, 30_000},
		{"tc", func() *prog.Workload {
			return prog.TC(graph.Uniform(360/f, 2200/f, 23))
		}, 50_000},
		{"astar", func() *prog.Workload {
			return prog.Astar(96/f, 96/f, 35, 600, 7)
		}, 30_000},
	}
}

// SpecCPUSpecs returns the SPEC-2017-like synthetic kernels (Fig. 12 right
// group / Fig. 14).
func SpecCPUSpecs(quick bool) []Spec {
	f := 1
	if quick {
		f = 3
	}
	return []Spec{
		{"perlbench", func() *prog.Workload { return prog.PerlbenchLike(30000/f, 8) }, 30_000},
		{"gcc", func() *prog.Workload { return prog.GccLike(900/f, 1) }, 30_000},
		{"mcf", func() *prog.Workload { return prog.McfLike(60000/f, 5) }, 30_000},
		{"omnetpp", func() *prog.Workload { return prog.OmnetppLike(3000/f, 30, 7) }, 30_000},
		{"xalanc", func() *prog.Workload { return prog.XalancLike(4000/f, 4) }, 30_000},
		{"x264", func() *prog.Workload { return prog.X264Like(60000/f, 9) }, 30_000},
		{"deepsjeng", func() *prog.Workload { return prog.DeepsjengLike(3000/f, 3) }, 30_000},
		{"leela", func() *prog.Workload { return prog.LeelaLike(4000/f, 2) }, 30_000},
		{"exchange2", func() *prog.Workload { return prog.Exchange2Like(120000 / f) }, 30_000},
		{"xz", func() *prog.Workload { return prog.XzLike(40000/f, 6) }, 30_000},
	}
}

// MicroSpecs returns the hand-written micro-kernels the CLI and the phelpsd
// workload registry expose by name alongside the two suites: the guarded
// pair, the nested dual-helper-thread loop, and the delinquent family.
// Sizes are fixed (quick is accepted for signature symmetry with the suites
// but these kernels are already unit-test sized).
func MicroSpecs(bool) []Spec {
	return []Spec{
		{"guarded", func() *prog.Workload { return prog.GuardedPair(60000, 24, 3) }, 50_000},
		{"nested", func() *prog.Workload { return prog.NestedLoop(30000, 6, 4) }, 60_000},
		{"delinquent", func() *prog.Workload { return prog.DelinquentLoop(50000, 50, 1) }, 50_000},
		{"chase", func() *prog.Workload { return prog.DelinquentChase(1<<20, 150_000, 50, 1) }, 50_000},
		{"chase_nested", func() *prog.Workload { return prog.DelinquentChaseNested(1<<20, 50_000, 6, 1) }, 50_000},
	}
}

// AllSpecs returns every named workload: the GAP suite, the SPEC-like suite,
// and the micro-kernels, in that order.
func AllSpecs(quick bool) []Spec {
	specs := append(GapSpecs(quick), SpecCPUSpecs(quick)...)
	return append(specs, MicroSpecs(quick)...)
}

// SpecByName resolves a workload name against AllSpecs. Unknown names are an
// error listing what exists (mirroring ConfigByName).
func SpecByName(name string, quick bool) (Spec, error) {
	all := AllSpecs(quick)
	for _, s := range all {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return Spec{}, fmt.Errorf("sim: unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Configuration names for the run matrix.
const (
	CfgBase          = "base"            // TAGE baseline
	CfgPerfect       = "perfBP"          // perfect branch prediction
	CfgPhelps        = "phelps"          // full Phelps
	CfgPhelpsNoStore = "phelps-nostores" // Fig. 12b ablation
	CfgBR            = "br"              // Branch Runahead, speculative, static partition
	CfgBR12w         = "br-12w"          // BR with untouched main thread
	CfgHalf          = "half"            // forced 1/2 partition, no helper threads
)

// configEntry is one registered named configuration. The registry is the
// single source of truth RunMatrix, phelps, and phelpsreport share; build
// takes the workload's epoch length because Phelps/BR epochs scale with the
// workload (see EXPERIMENTS.md).
type configEntry struct {
	name  string
	desc  string
	build func(epoch uint64) Config
}

var configRegistry = []configEntry{
	{CfgBase, "TAGE-SC-L baseline, no pre-execution", func(uint64) Config {
		return DefaultConfig()
	}},
	{CfgPerfect, "perfect branch prediction oracle (Fig. 12a upper bound)", func(uint64) Config {
		cfg := DefaultConfig()
		cfg.Predictor = PredPerfect
		return cfg
	}},
	{CfgPhelps, "full Phelps: predicated helper threads", func(epoch uint64) Config {
		return PhelpsConfig(epoch)
	}},
	{CfgPhelpsNoStore, "Phelps without helper-thread stores (Fig. 12b ablation)", func(epoch uint64) Config {
		cfg := PhelpsConfig(epoch)
		cfg.Phelps.Construction.IncludeStores = false
		return cfg
	}},
	{CfgBR, "Branch Runahead, speculative chains, static partition", func(epoch uint64) Config {
		cfg := DefaultConfig()
		cfg.Mode = ModeRunahead
		cfg.Runahead.EpochLen = epoch
		return cfg
	}},
	{CfgBR12w, "Branch Runahead with an untouched 12-wide main thread", func(epoch uint64) Config {
		cfg := DefaultConfig()
		cfg.Mode = ModeRunahead
		cfg.Runahead.EpochLen = epoch
		cfg.Runahead.StaticPartition = false
		return cfg
	}},
	{CfgHalf, "half-partitioned main thread, no helper threads (Fig. 13c)", func(uint64) Config {
		cfg := DefaultConfig()
		cfg.ForcePartition = true
		return cfg
	}},
}

// ConfigNames returns every registered configuration name, in registry
// (paper-figure) order.
func ConfigNames() []string {
	names := make([]string, len(configRegistry))
	for i, e := range configRegistry {
		names[i] = e.name
	}
	return names
}

// ConfigDescription returns a one-line description of a registered
// configuration ("" if unknown).
func ConfigDescription(name string) string {
	for _, e := range configRegistry {
		if e.name == name {
			return e.desc
		}
	}
	return ""
}

// ConfigByName materializes a registered configuration for a workload's
// epoch length. Unknown names are an error (they were silently the baseline
// in the old stringly-typed switch).
func ConfigByName(name string, epoch uint64) (Config, error) {
	for _, e := range configRegistry {
		if e.name == name {
			return e.build(epoch), nil
		}
	}
	return Config{}, fmt.Errorf("sim: unknown configuration %q (have %s)",
		name, strings.Join(ConfigNames(), ", "))
}

// Matrix holds results per workload per configuration.
type Matrix map[string]map[string]Result

// MatrixOptions steers RunMatrixOpt's verification and fault containment.
// The zero value reproduces plain RunMatrix behavior.
type MatrixOptions struct {
	// Checks/Lockstep apply the corresponding Config knobs to every cell
	// (see Config).
	Checks   bool
	Lockstep bool

	// CrashDir receives minimized crash reports for panicking cells. Empty
	// means $PHELPS_CRASH_DIR, falling back to "crashes".
	CrashDir string

	// Faults injects deliberate timing-model bugs into every cell's main
	// core (containment tests only; see cpu.FaultInjection).
	Faults *cpu.FaultInjection

	// Sample, when non-nil, runs every cell sampled (as SampledRunCtx does)
	// instead of cycle-accurately end to end. Sample.Ckpts is shared across
	// cells: the configurations of one workload reuse its cached checkpoint
	// artifact once one of them has stored it (the cache key excludes
	// Mode). phelpsd runs a workload's sampled cells in order on one worker
	// so that only the first builds it.
	Sample *SampleConfig
}

// RunCellCtx runs one (workload, configuration) cell with fault containment:
// a panic anywhere inside the build or the simulator is recovered into an
// ErrPanic-wrapped error carrying the panic value, and a minimized repro
// (workload, config, program listing, goroutine stack) is dumped under the
// crash directory. The caller — a pool worker in a matrix sweep or in
// phelpsd — is unaffected. opt.Faults, when set, is injected into the cell's
// core (tests of the containment machinery).
func RunCellCtx(ctx context.Context, s Spec, cfgName string, opt MatrixOptions) (Result, error) {
	cfg, cerr := ConfigByName(cfgName, s.Epoch)
	if cerr != nil {
		return Result{}, cerr
	}
	return RunConfigCellCtx(ctx, s, cfgName, cfg, opt)
}

// RunConfigCellCtx is RunCellCtx for a configuration that is not in the name
// registry: explore-grid cells carry materialized Config values (hundreds of
// generated knob combinations), so the cell runner takes the Config directly
// and uses label only for crash reports and error text. It shares the full
// containment path — option application, panic recovery into ErrPanic, and
// the minimized crash dump.
func RunConfigCellCtx(ctx context.Context, s Spec, label string, cfg Config, opt MatrixOptions) (res Result, err error) {
	cfg.Checks = opt.Checks
	cfg.Lockstep = opt.Lockstep
	cfg.Faults = opt.Faults
	var w *prog.Workload
	defer func() {
		if r := recover(); r != nil {
			rep := check.Report{Name: s.Name, Config: label}
			if w != nil {
				rep.Prog = w.Prog
			}
			err = panicError(r, opt.CrashDir, rep)
		}
	}()
	if opt.Sample != nil {
		scfg := *opt.Sample
		scfg.crashDir, scfg.label = opt.CrashDir, label
		return sampledRun(ctx, s, cfg, scfg)
	}
	w = s.Build()
	return RunCtx(ctx, w, cfg)
}

// cellRun is one entry of an ad-hoc cell list: a workload and a
// materialized configuration outside the name registry, labeled for crash
// reports. The explore grid and the report plan are cell lists.
type cellRun struct {
	spec  Spec
	label string
	cfg   Config
}

// runCells runs a cell list on GOMAXPROCS pool workers through
// RunConfigCellCtx, starting cells in list order, and returns results and
// errors indexed like cells. The errors do not name their cell (see
// cellError). Cells not yet started when ctx ends fail with a wrapped
// ErrCanceled.
func runCells(ctx context.Context, cells []cellRun, opt MatrixOptions) ([]Result, []error) {
	results := make([]Result, len(cells))
	errs := make([]error, len(cells))
	ForEach(len(cells), runtime.GOMAXPROCS(0), func(i int) {
		c := &cells[i]
		if cerr := ctx.Err(); cerr != nil {
			errs[i] = fmt.Errorf("%w: %v", ErrCanceled, cerr)
			return
		}
		results[i], errs[i] = RunConfigCellCtx(ctx, c.spec, c.label, c.cfg, opt)
	})
	return results, errs
}

// cellError names the cell a failure came from.
func cellError(workload, label string, err error) error {
	return fmt.Errorf("%s under %s: %w", workload, label, err)
}

// RunMatrix runs each workload under each named configuration, one pool
// task per cell on GOMAXPROCS workers (runCells; each Spec.Build produces
// an independent Workload, and Run shares no mutable state between runs, so
// the results are identical to a serial sweep).
//
// Every run verifies the workload's architectural results. Per-cell
// failures (livelock, stall, panic, verification) are joined into the
// returned error — match with errors.Is(err, ErrLivelock / ErrStall /
// ErrPanic / ErrCheck / ErrVerify) — while the Matrix still carries every
// cell's metrics, so figures can render a partially failed sweep. An unknown
// configuration name fails the whole call before any simulation starts.
func RunMatrix(specs []Spec, configs []string) (Matrix, error) {
	return RunMatrixOpt(specs, configs, MatrixOptions{})
}

// RunMatrixOpt is RunMatrix with verification and containment options.
func RunMatrixOpt(specs []Spec, configs []string, opt MatrixOptions) (Matrix, error) {
	return RunMatrixCtx(context.Background(), specs, configs, opt)
}

// RunMatrixCtx is RunMatrixOpt under a context: cells already running stop
// with a wrapped ErrCanceled and cells not yet started are skipped (their
// error entries also wrap ErrCanceled), so a canceled sweep still returns
// the cells it finished.
func RunMatrixCtx(ctx context.Context, specs []Spec, configs []string, opt MatrixOptions) (Matrix, error) {
	var p cellPlan
	mp, err := planMatrix(&p, specs, configs)
	if err != nil {
		return nil, err
	}
	p.run(ctx, opt)
	sm := mp.result(&p)
	return sm.M, sm.Err
}

// Speedup returns cycles(base)/cycles(cfg) for a workload.
func (m Matrix) Speedup(workload, cfg string) float64 {
	b := m[workload][CfgBase]
	r := m[workload][cfg]
	if r.Cycles == 0 {
		return 0
	}
	return float64(b.Cycles) / float64(r.Cycles)
}

// --- Fig. 11: astar ablations + Branch Runahead variants ---

// Fig11Row is one bar of Fig. 11.
type Fig11Row struct {
	Name    string
	Speedup float64
	MPKI    float64
}

// Fig11 reproduces the astar comparison: BR-non-spec, BR-spec, full Phelps,
// and the three ablations (b1->b2->s1 is full Phelps; b1->b2 drops stores;
// b1 drops guarded branches and stores; b1->s1 keeps stores but not guarded
// branches). A config-registry lookup failure aborts before any simulation;
// a failed cell fails the figure.
func Fig11(quick bool) ([]Fig11Row, error) {
	var p cellPlan
	f, err := planFig11(&p, quick)
	if err != nil {
		return nil, err
	}
	p.run(context.Background(), MatrixOptions{})
	return f.rows(&p)
}

// fig11Plan is Fig. 11 in a cellPlan: one cell per bar, labeled with the
// bar's name, the baseline first.
type fig11Plan struct {
	cells []cellRef
}

func planFig11(p *cellPlan, quick bool) (*fig11Plan, error) {
	size := 96
	if quick {
		size = 56
	}
	epoch := uint64(30_000)
	spec := &Spec{Name: "astar", Epoch: epoch,
		Build: func() *prog.Workload { return prog.Astar(size, size, 35, 600, 7) }}

	var cfgErr error
	get := func(name string) Config {
		cfg, err := ConfigByName(name, epoch)
		if err != nil && cfgErr == nil {
			cfgErr = err
		}
		return cfg
	}
	brNon := get(CfgBR)
	brSpec := get(CfgBR)
	full := get(CfgPhelps)
	b1b2 := get(CfgPhelps)
	b1 := get(CfgPhelps)
	b1s1 := get(CfgPhelps)
	if cfgErr != nil {
		return nil, cfgErr
	}

	brNon.Runahead.Speculative = false
	b1b2.Phelps.Construction.IncludeStores = false
	b1.Phelps.Construction.IncludeStores = false
	b1.Phelps.Construction.IncludeGuardedBranches = false
	b1s1.Phelps.Construction.IncludeGuardedBranches = false
	f := &fig11Plan{}
	for _, bar := range []struct {
		name string
		cfg  Config
	}{
		{"baseline (TAGE-SC-L)", DefaultConfig()},
		{"BR-non-spec", brNon},
		{"BR-spec", brSpec},
		{"Phelps:b1->b2->s1 (full)", full},
		{"Phelps:b1->b2", b1b2},
		{"Phelps:b1", b1},
		{"Phelps:b1->s1", b1s1},
	} {
		f.cells = append(f.cells, p.add(spec, spec.Name, bar.name, bar.cfg))
	}
	return f, nil
}

func (f *fig11Plan) rows(p *cellPlan) ([]Fig11Row, error) {
	if err := p.failures(f.cells...); err != nil {
		return nil, err
	}
	base := p.result(f.cells[0])
	rows := make([]Fig11Row, len(f.cells))
	for i, c := range f.cells {
		r := p.result(c)
		rows[i] = Fig11Row{c.label, float64(base.Cycles) / float64(r.Cycles), r.MPKI()}
	}
	return rows, nil
}

// FormatFig11 renders Fig. 11 as text.
func FormatFig11(rows []Fig11Row) string {
	var b strings.Builder
	b.WriteString("Fig. 11 — astar: Phelps vs Branch Runahead, feature ablations\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-26s speedup %5.2fx   MPKI %6.2f\n", r.Name, r.Speedup, r.MPKI)
	}
	return b.String()
}

// --- Fig. 12a / 12b / 13a / 13b / 13c / 14 from the run matrix ---

// FormatFig12a renders the speedup comparison (perfBP, Phelps, BR, BR-12w).
func FormatFig12a(m Matrix, order []string) string {
	var b strings.Builder
	b.WriteString("Fig. 12a — speedup over baseline\n")
	fmt.Fprintf(&b, "  %-10s %8s %8s %8s %8s\n", "workload", "perfBP", "Phelps", "BR", "BR-12w")
	for _, w := range order {
		fmt.Fprintf(&b, "  %-10s %7.2fx %7.2fx %7.2fx %7.2fx\n", w,
			m.Speedup(w, CfgPerfect), m.Speedup(w, CfgPhelps),
			m.Speedup(w, CfgBR), m.Speedup(w, CfgBR12w))
	}
	return b.String()
}

// FormatFig12b renders Phelps with/without helper-thread stores.
func FormatFig12b(m Matrix, order []string) string {
	var b strings.Builder
	b.WriteString("Fig. 12b — Phelps speedup with/without stores\n")
	fmt.Fprintf(&b, "  %-10s %10s %12s\n", "workload", "with", "without")
	for _, w := range order {
		fmt.Fprintf(&b, "  %-10s %9.2fx %11.2fx\n", w,
			m.Speedup(w, CfgPhelps), m.Speedup(w, CfgPhelpsNoStore))
	}
	return b.String()
}

// FormatFig13a renders MPKI reduction.
func FormatFig13a(m Matrix, order []string) string {
	var b strings.Builder
	b.WriteString("Fig. 13a — MPKI: baseline vs Phelps (reduction)\n")
	fmt.Fprintf(&b, "  %-10s %8s %8s %8s\n", "workload", "base", "Phelps", "reduced")
	for _, w := range order {
		baseR := m[w][CfgBase]
		phR := m[w][CfgPhelps]
		base := baseR.MPKI()
		ph := phR.MPKI()
		red := 0.0
		if base > 0 {
			red = (base - ph) / base * 100
		}
		fmt.Fprintf(&b, "  %-10s %8.2f %8.2f %7.1f%%\n", w, base, ph, red)
	}
	return b.String()
}

// FormatFig13b renders helper-thread instruction overhead (retired HT
// instructions per 100 retired main-thread instructions).
func FormatFig13b(m Matrix, order []string) string {
	var b strings.Builder
	b.WriteString("Fig. 13b — helper thread overhead (HT insts per 100 MT insts)\n")
	for _, w := range order {
		r := m[w][CfgPhelps]
		ratio := 0.0
		if r.Retired > 0 {
			ratio = float64(r.Phelps.HTRetired) / float64(r.Retired) * 100
		}
		fmt.Fprintf(&b, "  %-10s %6.1f\n", w, ratio)
	}
	return b.String()
}

// FormatFig13c renders the slowdown of partitioning the core without running
// helper threads.
func FormatFig13c(m Matrix, order []string) string {
	var b strings.Builder
	b.WriteString("Fig. 13c — main-thread slowdown from partitioning alone\n")
	for _, w := range order {
		s := m.Speedup(w, CfgHalf)
		slow := 0.0
		if s > 0 {
			slow = (1/s - 1) * 100
		}
		fmt.Fprintf(&b, "  %-10s %6.1f%%\n", w, slow)
	}
	return b.String()
}

// FormatFig14 renders the misprediction characterization.
func FormatFig14(m Matrix, order []string) string {
	var b strings.Builder
	b.WriteString("Fig. 14 — misprediction characterization (Phelps runs)\n")
	for _, w := range order {
		r := m[w][CfgPhelps]
		base := m[w][CfgBase]
		elim := int64(base.Mispredicts) - int64(r.Mispredicts)
		if elim < 0 {
			elim = 0
		}
		fmt.Fprintf(&b, "  %-10s baseMPKI %6.2f eliminated %7d residual:\n", w, base.MPKI(), elim)
		type kv struct {
			c core.Category
			n uint64
		}
		var cats []kv
		for c := core.Category(0); c < core.NumCategories; c++ {
			if n := r.Phelps.Categories[c]; n > 0 {
				cats = append(cats, kv{c, n})
			}
		}
		sort.Slice(cats, func(i, j int) bool { return cats[i].n > cats[j].n })
		for _, c := range cats {
			fmt.Fprintf(&b, "      %-40s %8d\n", c.c.String(), c.n)
		}
	}
	return b.String()
}

// --- Fig. 15: sensitivity studies ---

// Fig15aRow is one (workload, ROB, depth) sensitivity point.
type Fig15aRow struct {
	Workload string
	ROB      int
	Depth    int
	Speedup  float64
}

// Fig15a sweeps window size and pipeline depth for the three headline
// workloads. A config-registry lookup failure aborts before any simulation;
// a failed cell fails the figure.
func Fig15a(quick bool) ([]Fig15aRow, error) {
	var p cellPlan
	f, err := planFig15a(&p, GapSpecs(quick))
	if err != nil {
		return nil, err
	}
	p.run(context.Background(), MatrixOptions{})
	return f.rows(&p)
}

// fig15aPlan is Fig. 15a in a cellPlan: each row is a (base, phelps) cell pair
// at one (ROB, depth) point.
type fig15aPlan struct {
	points []Fig15aRow // the rows, Speedup unset
	cells  [][2]cellRef
}

// planFig15a adds Fig. 15a's cells for the astar, bfs and bc workloads of
// the GAP suite slice gap.
func planFig15a(p *cellPlan, gap []Spec) (*fig15aPlan, error) {
	var specs []*Spec
	for i, s := range gap {
		if s.Name == "astar" || s.Name == "bfs" || s.Name == "bc" {
			specs = append(specs, &gap[i])
		}
	}
	robs := []int{320, 632, 1024}
	depths := []int{11, 15, 19}
	f := &fig15aPlan{}
	for _, s := range specs {
		point := func(rob, depth int) error {
			var pair [2]cellRef
			for i, name := range []string{CfgBase, CfgPhelps} {
				cfg, err := ConfigByName(name, s.Epoch)
				if err != nil {
					return err
				}
				ScaleWindow(&cfg, rob, depth)
				pair[i] = p.add(s, s.Name, fmt.Sprintf("%s rob=%d depth=%d", name, rob, depth), cfg)
			}
			f.points = append(f.points, Fig15aRow{Workload: s.Name, ROB: rob, Depth: depth})
			f.cells = append(f.cells, pair)
			return nil
		}
		// ROB sweep at depth 11 (with commensurate PRF/LQ/SQ/IQ sizing).
		for _, rob := range robs {
			if err := point(rob, 11); err != nil {
				return nil, err
			}
		}
		// Depth sweep at ROB 632.
		for _, d := range depths[1:] {
			if err := point(632, d); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

func (f *fig15aPlan) rows(p *cellPlan) ([]Fig15aRow, error) {
	if err := p.failures(pairCells(f.cells)...); err != nil {
		return nil, err
	}
	rows := append([]Fig15aRow(nil), f.points...)
	for i, c := range f.cells {
		rows[i].Speedup = float64(p.result(c[0]).Cycles) / float64(p.result(c[1]).Cycles)
	}
	return rows, nil
}

// ScaleWindow sizes cfg's out-of-order window for a ROB of rob entries and a
// pipeline of depth stages, scaling the PRF, LQ, SQ and IQ in proportion
// from the 632-entry Table III point. Fig. 15a, the explore grid and the
// phelps CLI's -rob/-depth all size windows through it.
func ScaleWindow(cfg *Config, rob, depth int) {
	base := 632.0
	f := float64(rob) / base
	cfg.Core.ROB = rob
	cfg.Core.PRF = int(696*f) + 32
	cfg.Core.LQ = int(144 * f)
	cfg.Core.SQ = int(144 * f)
	cfg.Core.IQ = int(128 * f)
	cfg.Core.PipelineDepth = depth
}

// FormatFig15a renders the sensitivity sweep.
func FormatFig15a(rows []Fig15aRow) string {
	var b strings.Builder
	b.WriteString("Fig. 15a — Phelps speedup vs window size and pipeline depth\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-6s ROB=%4d depth=%2d  speedup %5.2fx\n", r.Workload, r.ROB, r.Depth, r.Speedup)
	}
	return b.String()
}

// Fig15bRow is one bfs input point.
type Fig15bRow struct {
	Input   string
	Speedup float64
	MPKIRed float64
}

// Fig15b runs bfs on the three input families (road / web / kron). A
// failed cell fails the figure.
func Fig15b(quick bool) ([]Fig15bRow, error) {
	var p cellPlan
	f := planFig15b(&p, GapSpecs(quick), quick)
	p.run(context.Background(), MatrixOptions{})
	return f.rows(&p)
}

// fig15bPlan is Fig. 15b in a cellPlan: a (base, phelps) cell pair per input.
type fig15bPlan struct {
	inputs []string
	cells  [][2]cellRef
}

// planFig15b adds Fig. 15b's cells. The road input is the bfs workload of
// the GAP suite slice gap (same graph, source and epoch), so in the report
// it shares the run matrix's bfs cells.
func planFig15b(p *cellPlan, gap []Spec, quick bool) *fig15bPlan {
	f := 1
	if quick {
		f = 2
	}
	const epoch = 40_000
	bfs := func(name string, g *graph.Graph) *Spec {
		src := g.MainComponentSource()
		// The graph is read-only, so concurrent builds share it.
		return &Spec{Name: name, Epoch: epoch, Build: func() *prog.Workload { return prog.BFS(g, src) }}
	}
	inputs := []struct {
		name string
		spec *Spec
	}{
		{"road", &gap[slices.IndexFunc(gap, func(s Spec) bool { return s.Name == "bfs" })]},
		{"web", bfs("bfs-web", graph.Web(6000/(f*f), 2, 13))},
		{"kron", bfs("bfs-kron", graph.Kron(12-f, 6, 17))},
	}
	fp := &fig15bPlan{}
	for _, in := range inputs {
		name := "bfs-" + in.name
		fp.inputs = append(fp.inputs, in.name)
		fp.cells = append(fp.cells, [2]cellRef{
			p.add(in.spec, name, CfgBase, DefaultConfig()),
			p.add(in.spec, name, CfgPhelps, PhelpsConfig(epoch)),
		})
	}
	return fp
}

func (f *fig15bPlan) rows(p *cellPlan) ([]Fig15bRow, error) {
	if err := p.failures(pairCells(f.cells)...); err != nil {
		return nil, err
	}
	rows := make([]Fig15bRow, len(f.cells))
	for i, c := range f.cells {
		b, ph := p.result(c[0]), p.result(c[1])
		red := 0.0
		if b.MPKI() > 0 {
			red = (b.MPKI() - ph.MPKI()) / b.MPKI() * 100
		}
		rows[i] = Fig15bRow{f.inputs[i], float64(b.Cycles) / float64(ph.Cycles), red}
	}
	return rows, nil
}

// FormatFig15b renders the input study.
func FormatFig15b(rows []Fig15bRow) string {
	var b strings.Builder
	b.WriteString("Fig. 15b — bfs across inputs\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-6s speedup %5.2fx  MPKI reduction %5.1f%%\n", r.Input, r.Speedup, r.MPKIRed)
	}
	return b.String()
}

// FormatTableIII renders the core configuration (Table III).
func FormatTableIII() string {
	cfg := DefaultConfig()
	var b strings.Builder
	b.WriteString("Table III — superscalar core and memory hierarchy\n")
	fmt.Fprintf(&b, "  branch predictor      TAGE-SC-L class\n")
	fmt.Fprintf(&b, "  pipeline depth        %d stages (fetch to retire)\n", cfg.Core.PipelineDepth)
	fmt.Fprintf(&b, "  fetch/retire width    %d instr./cycle\n", cfg.Core.FetchWidth)
	fmt.Fprintf(&b, "  execution lanes       %d simple ALU, %d load/store, %d complex\n",
		cfg.Core.SimpleALUs, cfg.Core.MemLanes, cfg.Core.ComplexALUs)
	fmt.Fprintf(&b, "  ROB/PRF/LQ/SQ/IQ      %d/%d/%d/%d/%d\n",
		cfg.Core.ROB, cfg.Core.PRF, cfg.Core.LQ, cfg.Core.SQ, cfg.Core.IQ)
	fmt.Fprintf(&b, "  L1I                   %d KB, %d-way\n",
		cfg.Cache.L1ISets*cfg.Cache.L1IWays*64/1024, cfg.Cache.L1IWays)
	fmt.Fprintf(&b, "  L1D                   %d KB, %d-way, %d cycles\n",
		cfg.Cache.L1DSets*cfg.Cache.L1DWays*64/1024, cfg.Cache.L1DWays, cfg.Cache.L1Latency)
	fmt.Fprintf(&b, "  L2                    %d KB, %d-way, %d cycles (IPCP-class prefetcher at L1)\n",
		cfg.Cache.L2Sets*cfg.Cache.L2Ways*64/1024, cfg.Cache.L2Ways, cfg.Cache.L2Latency)
	fmt.Fprintf(&b, "  L3                    %d KB, %d-way, %d cycles (VLDP-class prefetcher at L2)\n",
		cfg.Cache.L3Sets*cfg.Cache.L3Ways*64/1024, cfg.Cache.L3Ways, cfg.Cache.L3Latency)
	fmt.Fprintf(&b, "  DRAM                  %d cycles\n", cfg.Cache.DRAMLatency)
	return b.String()
}
