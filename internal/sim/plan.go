package sim

import (
	"context"
	"errors"
	"fmt"
)

// cellPlan is a cell list that several figures fill before one pool pass
// (one runCells call) runs every cell. Each figure adds the cells it needs
// and keeps a reference to each; after the pass it reads its rows back
// through them. A cell's identity is the Spec it runs — a pointer into the
// suite slice the figures share — and its resolved Config, so figures that
// ask for the same suite workload under the same configuration share one
// run. A Spec a figure builds for itself (Fig. 11's astar) gets cells of its
// own, whatever it is named.
type cellPlan struct {
	cells []cellRun
	index map[planKey]int
	res   []Result
	errs  []error // per cell, unnamed: failures names them by reference
}

// planKey is a cell's identity in a cellPlan. Config is comparable: equal
// values configure identical runs.
type planKey struct {
	spec *Spec
	cfg  Config
}

// cellRef is a figure's reference to a planned cell: its index plus the
// workload name and label the figure reports it under, which are not
// always those of the figure that planned the cell first.
type cellRef struct {
	i           int
	name, label string
}

// add returns a reference, under the given name and label, to the cell
// that runs *s under cfg, appending the cell unless an equal one is already
// planned. A new cell keeps the label for its crash report.
func (p *cellPlan) add(s *Spec, name, label string, cfg Config) cellRef {
	k := planKey{s, cfg}
	i, ok := p.index[k]
	if !ok {
		if p.index == nil {
			p.index = make(map[planKey]int)
		}
		i = len(p.cells)
		p.cells = append(p.cells, cellRun{*s, label, cfg})
		p.index[k] = i
	}
	return cellRef{i, name, label}
}

// run runs every planned cell once on GOMAXPROCS pool workers, starting
// them in the order they were added.
func (p *cellPlan) run(ctx context.Context, opt MatrixOptions) {
	p.res, p.errs = runCells(ctx, p.cells, opt)
}

// result returns a referenced cell's result.
func (p *cellPlan) result(r cellRef) *Result { return &p.res[r.i] }

// failures joins the errors of the referenced cells, each named by its
// reference (nil if they all ran clean).
func (p *cellPlan) failures(refs ...cellRef) error {
	var errs []error
	for _, r := range refs {
		if err := p.errs[r.i]; err != nil {
			errs = append(errs, cellError(r.name, r.label, err))
		}
	}
	return errors.Join(errs...)
}

// pairCells flattens (base, variant) cell pairs into one reference list.
func pairCells(pairs [][2]cellRef) []cellRef {
	out := make([]cellRef, 0, 2*len(pairs))
	for _, c := range pairs {
		out = append(out, c[0], c[1])
	}
	return out
}

// The run-matrix configurations of the report's Figs. 12–14, baseline
// first.
var (
	gapConfigs  = []string{CfgBase, CfgPerfect, CfgPhelps, CfgPhelpsNoStore, CfgBR, CfgBR12w, CfgHalf}
	specConfigs = []string{CfgBase, CfgPerfect, CfgPhelps, CfgBR, CfgBR12w, CfgHalf}
)

// SuiteMatrix is one suite's run matrix in a Report.
type SuiteMatrix struct {
	Names   []string // workloads, in suite order
	Configs []string // configurations, baseline first
	M       Matrix
	// Err joins the failed cells' errors; M still carries their metrics,
	// so a partially failed matrix still renders.
	Err error
}

// matrixPlan is a run matrix in a cellPlan: cells[i][j] runs specs[i] under
// configs[j].
type matrixPlan struct {
	specs   []Spec
	configs []string
	cells   [][]cellRef
}

// planMatrix adds a run matrix's cells, row by row. An unknown
// configuration name is an error.
func planMatrix(p *cellPlan, specs []Spec, configs []string) (*matrixPlan, error) {
	mp := &matrixPlan{specs: specs, configs: configs}
	for i := range specs {
		s := &specs[i]
		row := make([]cellRef, len(configs))
		for j, c := range configs {
			cfg, err := ConfigByName(c, s.Epoch)
			if err != nil {
				return nil, err
			}
			row[j] = p.add(s, s.Name, c, cfg)
		}
		mp.cells = append(mp.cells, row)
	}
	return mp, nil
}

func (mp *matrixPlan) result(p *cellPlan) *SuiteMatrix {
	sm := &SuiteMatrix{Configs: mp.configs, M: make(Matrix, len(mp.specs))}
	var errs []error
	for i, s := range mp.specs {
		sm.Names = append(sm.Names, s.Name)
		row := make(map[string]Result, len(mp.configs))
		for j, c := range mp.configs {
			row[c] = *p.result(mp.cells[i][j])
		}
		sm.M[s.Name] = row
		errs = append(errs, p.failures(mp.cells[i]...))
	}
	sm.Err = errors.Join(errs...)
	return sm
}

// ReportFigures returns the figure numbers the report regenerates: Fig. 11,
// the run-matrix figures 12–14, and the Fig. 15 sensitivity studies.
func ReportFigures() []int { return []int{11, 12, 13, 14, 15} }

// ReportPlan is the cell plan of the figures one report prints, built by
// PlanReport and run in one pool pass by Run.
type ReportPlan struct {
	plan      cellPlan
	fig11     *fig11Plan
	gap, spec *matrixPlan
	fig15a    *fig15aPlan
	fig15b    *fig15bPlan
}

// PlanReport plans the cells of the given figures (any of ReportFigures;
// 12, 13 and 14 all read the two run matrices) at the quick or full
// workload sizes. Cells are added figure by figure, in figure order, and
// equal cells are planned once. An unknown figure number is an error, and
// so is a config-registry lookup failure; nothing has run yet either way.
func PlanReport(figs []int, quick bool) (*ReportPlan, error) {
	want := make(map[int]bool, len(figs))
	for _, f := range figs {
		if f < 11 || f > 15 {
			return nil, fmt.Errorf("sim: the report has no figure %d (have 11-15)", f)
		}
		want[f] = true
	}
	rp := &ReportPlan{}
	p := &rp.plan
	// One GAP suite slice: Fig. 15 reads its workloads, so its cells can be
	// the run matrix's.
	gap := GapSpecs(quick)
	var err error
	if want[11] {
		if rp.fig11, err = planFig11(p, quick); err != nil {
			return nil, err
		}
	}
	if want[12] || want[13] || want[14] {
		if rp.gap, err = planMatrix(p, gap, gapConfigs); err != nil {
			return nil, err
		}
		if rp.spec, err = planMatrix(p, SpecCPUSpecs(quick), specConfigs); err != nil {
			return nil, err
		}
	}
	if want[15] {
		if rp.fig15a, err = planFig15a(p, gap); err != nil {
			return nil, err
		}
		rp.fig15b = planFig15b(p, gap, quick)
	}
	return rp, nil
}

// Len returns the number of distinct cells the plan runs.
func (rp *ReportPlan) Len() int { return len(rp.plan.cells) }

// Report holds the figures of one ReportPlan run; figures the plan did not
// select, and figures with a failed cell, are nil.
type Report struct {
	Fig11     []Fig11Row
	Gap, Spec *SuiteMatrix // the GAP+astar and SPEC-like run matrices (Figs. 12–14)
	Fig15a    []Fig15aRow
	Fig15b    []Fig15bRow
}

// Run runs every planned cell in one pool pass and reads the figures back.
// Failed matrix cells are reported in the matrices' Err fields. A failed
// Fig. 11 or Fig. 15 cell leaves that figure nil and fails the call, but the
// returned Report still holds every figure that finished.
func (rp *ReportPlan) Run() (*Report, error) {
	rp.plan.run(context.Background(), MatrixOptions{})
	return rp.report()
}

// report reads the figures back from a run plan.
func (rp *ReportPlan) report() (*Report, error) {
	p := &rp.plan
	r := &Report{}
	var errs []error
	var err error
	if rp.fig11 != nil {
		if r.Fig11, err = rp.fig11.rows(p); err != nil {
			errs = append(errs, fmt.Errorf("fig11: %w", err))
		}
	}
	if rp.gap != nil {
		r.Gap, r.Spec = rp.gap.result(p), rp.spec.result(p)
	}
	if rp.fig15a != nil {
		if r.Fig15a, err = rp.fig15a.rows(p); err != nil {
			errs = append(errs, fmt.Errorf("fig15a: %w", err))
		}
		if r.Fig15b, err = rp.fig15b.rows(p); err != nil {
			errs = append(errs, fmt.Errorf("fig15b: %w", err))
		}
	}
	return r, errors.Join(errs...)
}
