package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// quickReportRun is the quick report's plan (every cell of Figs. 11–15, as
// phelpsreport -quick runs them), run at most once per test binary. The
// cycle-exactness and figure goldens read their cells from it.
var quickReportRun struct {
	once sync.Once
	r    *Report
	err  error
}

func quickReport(t *testing.T) *Report {
	t.Helper()
	quickReportRun.once.Do(func() {
		rp, err := PlanReport(ReportFigures(), true)
		if err != nil {
			quickReportRun.err = err
			return
		}
		quickReportRun.r, quickReportRun.err = rp.Run()
	})
	if quickReportRun.err != nil {
		t.Fatalf("quick report: %v", quickReportRun.err)
	}
	return quickReportRun.r
}

// TestQuickReportPlan pins the quick report's cell plan: the figures ask for
// 159 cells and 157 are distinct. Fig. 15b's road input shares the run
// matrix's bfs/base and bfs/phelps cells, and Fig. 11's quick astar (56×56)
// stays apart from the matrix's astar (48×48) although both are named
// "astar".
func TestQuickReportPlan(t *testing.T) {
	rp, err := PlanReport(ReportFigures(), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.Len(); got != 157 {
		t.Fatalf("quick report plans %d cells, want 157", got)
	}
	if rp.fig15b.inputs[0] != "road" {
		t.Fatalf("Fig. 15b inputs %v, want road first", rp.fig15b.inputs)
	}
	road := rp.fig15b.cells[0]
	if got, want := [2]int{road[0].i, road[1].i}, [2]int{gapCell(t, rp, "bfs", CfgBase).i, gapCell(t, rp, "bfs", CfgPhelps).i}; got != want {
		t.Errorf("Fig. 15b road reads cells %v, want the matrix's bfs cells %v", got, want)
	}
	if rp.fig11.cells[0].i == gapCell(t, rp, "astar", CfgBase).i {
		t.Error("Fig. 11's quick astar baseline merged with the matrix's astar baseline")
	}
	seen := map[int]bool{}
	for _, c := range pairCells(rp.fig15b.cells[1:]) {
		if seen[c.i] {
			t.Errorf("Fig. 15b web/kron cell %d planned twice", c.i)
		}
		seen[c.i] = true
	}
}

// gapCell returns the GAP matrix's reference to a workload/config cell.
func gapCell(t *testing.T, rp *ReportPlan, workload, config string) cellRef {
	t.Helper()
	i := slices.IndexFunc(rp.gap.specs, func(s Spec) bool { return s.Name == workload })
	j := slices.Index(rp.gap.configs, config)
	if i < 0 || j < 0 {
		t.Fatalf("no %s/%s cell in the GAP matrix", workload, config)
	}
	return rp.gap.cells[i][j]
}

// TestReportFailureNamesEachFiguresCell fails one shared cell (without
// running the plan) and reads the report back: each figure names the cell
// its own way, and the figures that did not read it still come back.
func TestReportFailureNamesEachFiguresCell(t *testing.T) {
	rp, err := PlanReport(ReportFigures(), true)
	if err != nil {
		t.Fatal(err)
	}
	p := &rp.plan
	p.res, p.errs = make([]Result, rp.Len()), make([]error, rp.Len())
	for i := range p.res {
		p.res[i].Cycles = 1
	}
	p.errs[gapCell(t, rp, "bfs", CfgBase).i] = ErrStall
	r, err := rp.report()
	if !errors.Is(err, ErrStall) {
		t.Fatalf("report error %v, want ErrStall", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "fig15b: bfs-road under base") || strings.Contains(msg, "fig11") || strings.Contains(msg, "fig15a") {
		t.Errorf("report error %q should name Fig. 15b's road cell and nothing else", msg)
	}
	if r.Gap == nil || r.Spec == nil {
		t.Fatal("report lost the run matrices")
	}
	if !strings.Contains(fmt.Sprint(r.Gap.Err), "bfs under base") {
		t.Errorf("GAP matrix error %v, want it to name bfs under base", r.Gap.Err)
	}
	if r.Spec.Err != nil {
		t.Errorf("SPEC matrix error %v, want none", r.Spec.Err)
	}
	if r.Fig11 == nil || r.Fig15a == nil || r.Fig15b != nil {
		t.Errorf("report holds Fig. 11 %v, Fig. 15a %v, Fig. 15b %v; want every figure but Fig. 15b",
			r.Fig11 != nil, r.Fig15a != nil, r.Fig15b != nil)
	}
}

// TestPlanReportRejectsUnknownFigure: a figure outside 11–15 is an error at
// planning time, before any cell runs, even beside a valid figure.
func TestPlanReportRejectsUnknownFigure(t *testing.T) {
	for _, figs := range [][]int{{99}, {10}, {16}, {0}, {11, 99}} {
		rp, err := PlanReport(figs, true)
		if err == nil {
			t.Errorf("PlanReport(%v) planned %d cells, want an error", figs, rp.Len())
			continue
		}
		if !strings.Contains(err.Error(), "11-15") {
			t.Errorf("PlanReport(%v): error %q should name the valid figures", figs, err)
		}
	}
	if rp, err := PlanReport(nil, true); err != nil || rp.Len() != 0 {
		t.Errorf("PlanReport(nil) = %v cells, %v; want an empty plan", rp.Len(), err)
	}
}
