// Package phelps_test is the benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation section. Each benchmark runs
// the corresponding experiment on the quick-profile workloads and reports
// the headline quantities as custom metrics; the full-size report is
// produced by cmd/phelpsreport (recorded in EXPERIMENTS.md).
package phelps_test

import (
	"testing"

	"phelps/internal/core"
	"phelps/internal/sim"
)

// BenchmarkTableII_ComponentCosts reproduces Table II (Phelps storage cost).
func BenchmarkTableII_ComponentCosts(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		total = core.TotalCostKB()
	}
	b.ReportMetric(total, "KB-total")
	b.Logf("\n%s", core.FormatCostTable())
}

// BenchmarkTableIII_CoreConfig renders the core configuration table.
func BenchmarkTableIII_CoreConfig(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = sim.FormatTableIII()
	}
	b.Logf("\n%s", s)
}

// BenchmarkFig11_AstarTopSimpoint runs the astar ablation comparison:
// BR-non-spec, BR-spec, full Phelps, Phelps:b1->b2, Phelps:b1,
// Phelps:b1->s1.
func BenchmarkFig11_AstarTopSimpoint(b *testing.B) {
	var rows []sim.Fig11Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.Fig11(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Name == "Phelps:b1->b2->s1 (full)" {
			b.ReportMetric(r.Speedup, "phelps-speedup")
			b.ReportMetric(r.MPKI, "phelps-MPKI")
		}
	}
	b.Logf("\n%s", sim.FormatFig11(rows))
}

func quickGapMatrix(b *testing.B, configs []string) (sim.Matrix, []string) {
	b.Helper()
	specs := sim.GapSpecs(true)
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	m, err := sim.RunMatrix(specs, configs)
	if err != nil {
		b.Fatalf("matrix: %v", err)
	}
	return m, names
}

// BenchmarkFig12a_Speedups compares perfBP, Phelps, BR, and BR-12w across
// the GAP+astar suite.
func BenchmarkFig12a_Speedups(b *testing.B) {
	var m sim.Matrix
	var names []string
	for i := 0; i < b.N; i++ {
		m, names = quickGapMatrix(b, []string{
			sim.CfgBase, sim.CfgPerfect, sim.CfgPhelps, sim.CfgBR, sim.CfgBR12w,
		})
	}
	b.ReportMetric(m.Speedup("astar", sim.CfgPhelps), "astar-phelps-x")
	b.ReportMetric(m.Speedup("bfs", sim.CfgPhelps), "bfs-phelps-x")
	b.ReportMetric(m.Speedup("bc", sim.CfgPhelps), "bc-phelps-x")
	b.Logf("\n%s", sim.FormatFig12a(m, names))
}

// BenchmarkFig12b_Stores isolates helper-thread stores (Phelps with/without).
func BenchmarkFig12b_Stores(b *testing.B) {
	var m sim.Matrix
	var names []string
	for i := 0; i < b.N; i++ {
		m, names = quickGapMatrix(b, []string{
			sim.CfgBase, sim.CfgPhelps, sim.CfgPhelpsNoStore,
		})
	}
	b.ReportMetric(m.Speedup("astar", sim.CfgPhelps), "astar-with-stores-x")
	b.ReportMetric(m.Speedup("astar", sim.CfgPhelpsNoStore), "astar-without-stores-x")
	b.Logf("\n%s", sim.FormatFig12b(m, names))
}

// BenchmarkFig13a_MPKIReduction measures the MPKI reduction of Phelps.
func BenchmarkFig13a_MPKIReduction(b *testing.B) {
	var m sim.Matrix
	var names []string
	for i := 0; i < b.N; i++ {
		m, names = quickGapMatrix(b, []string{sim.CfgBase, sim.CfgPhelps})
	}
	base := m["astar"][sim.CfgBase]
	ph := m["astar"][sim.CfgPhelps]
	b.ReportMetric(base.MPKI(), "astar-base-MPKI")
	b.ReportMetric(ph.MPKI(), "astar-phelps-MPKI")
	b.Logf("\n%s", sim.FormatFig13a(m, names))
}

// BenchmarkFig13b_HelperOverhead measures retired helper-thread instructions
// (the paper reports a mean of 34.7M per 100M main-thread instructions).
func BenchmarkFig13b_HelperOverhead(b *testing.B) {
	var m sim.Matrix
	var names []string
	for i := 0; i < b.N; i++ {
		m, names = quickGapMatrix(b, []string{sim.CfgBase, sim.CfgPhelps})
	}
	r := m["astar"][sim.CfgPhelps]
	b.ReportMetric(float64(r.Phelps.HTRetired)/float64(r.Retired)*100, "astar-ht-per-100")
	b.Logf("\n%s", sim.FormatFig13b(m, names))
}

// BenchmarkFig13c_PartitionImpact measures the slowdown of halving the main
// thread's resources without helper threads.
func BenchmarkFig13c_PartitionImpact(b *testing.B) {
	var m sim.Matrix
	var names []string
	for i := 0; i < b.N; i++ {
		m, names = quickGapMatrix(b, []string{sim.CfgBase, sim.CfgHalf})
	}
	s := m.Speedup("astar", sim.CfgHalf)
	b.ReportMetric((1/s-1)*100, "astar-slowdown-pct")
	b.Logf("\n%s", sim.FormatFig13c(m, names))
}

// BenchmarkFig14_MispCharacterization classifies residual mispredictions on
// the SPEC-like suite (the paper's category breakdown).
func BenchmarkFig14_MispCharacterization(b *testing.B) {
	var m sim.Matrix
	var names []string
	for i := 0; i < b.N; i++ {
		specs := sim.SpecCPUSpecs(true)
		names = names[:0]
		for _, s := range specs {
			names = append(names, s.Name)
		}
		var err error
		m, err = sim.RunMatrix(specs, []string{sim.CfgBase, sim.CfgPhelps})
		if err != nil {
			b.Fatalf("matrix: %v", err)
		}
	}
	mcf := m["mcf"][sim.CfgPhelps]
	b.ReportMetric(float64(mcf.Phelps.Categories[core.CatNotInLoop]), "mcf-not-in-loop")
	b.Logf("\n%s", sim.FormatFig14(m, names))
}

// BenchmarkFig15a_WindowSensitivity sweeps ROB size and pipeline depth.
func BenchmarkFig15a_WindowSensitivity(b *testing.B) {
	var rows []sim.Fig15aRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.Fig15a(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Workload == "bfs" && r.ROB == 1024 {
			b.ReportMetric(r.Speedup, "bfs-rob1024-x")
		}
	}
	b.Logf("\n%s", sim.FormatFig15a(rows))
}

// BenchmarkFig15b_BfsInputs runs bfs on road / web / kron inputs.
func BenchmarkFig15b_BfsInputs(b *testing.B) {
	var rows []sim.Fig15bRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.Fig15b(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Input == "road" {
			b.ReportMetric(r.Speedup, "road-x")
		}
	}
	b.Logf("\n%s", sim.FormatFig15b(rows))
}
