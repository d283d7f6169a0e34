// Command phelpsreport regenerates the paper's tables and figures on the
// scaled-down workload suite and prints them in paper-style rows. This is
// the binary behind EXPERIMENTS.md. Alongside the text output it writes a
// machine-readable BENCH_report.json (per-figure rows plus geomean
// speedups; see EXPERIMENTS.md for the schema).
//
//	phelpsreport -all          # everything (several minutes)
//	phelpsreport -fig 11       # just Fig. 11
//	phelpsreport -tables       # Tables II and III
//	phelpsreport -quick        # everything at reduced sizes
//	phelpsreport -host         # host-performance suite -> BENCH_host.json
//	phelpsreport -explore      # model-triaged design-space search
//	phelpsreport -explore -exhaustive   # ...plus full-sweep validation
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"phelps/internal/core"
	"phelps/internal/obs"
	"phelps/internal/sim"
	"phelps/internal/stats"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		fig      = flag.Int("fig", 0, "run one figure (11, 12, 13, 14, 15)")
		tables   = flag.Bool("tables", false, "print Tables II and III")
		quick    = flag.Bool("quick", false, "reduced workload sizes (alone, implies -all)")
		jsonPath = flag.String("json", "BENCH_report.json", "path for the JSON report artifact")
		host     = flag.Bool("host", false, "measure host performance (sim-inst/s, allocs/sim-inst)")
		hostPath = flag.String("hostjson", "BENCH_host.json", "path for the host-performance artifact")
		explore  = flag.Bool("explore", false, "model-triaged design-space search (learned fast path)")
		exhaust  = flag.Bool("exhaustive", false, "with -explore: also cycle-simulate the whole space for validation")
		anchors  = flag.Int("anchors", 0, "with -explore: cycle-simulated training configs (0 = auto)")
	)
	flag.Parse()
	if *quick && *fig == 0 && !*tables {
		*all = true
	}
	// One plan holds every cell of the figures this report prints. It is
	// built first, so an unknown -fig is a usage error before anything runs.
	var figs []int
	if *fig != 0 {
		figs = append(figs, *fig)
	}
	if *all {
		figs = append(figs, sim.ReportFigures()...)
	}
	var plan *sim.ReportPlan
	if len(figs) > 0 {
		var err error
		if plan, err = sim.PlanReport(figs, *quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			flag.Usage()
			os.Exit(2)
		}
	}
	if *host {
		if err := runHostBench(*hostPath); err != nil {
			fmt.Fprintf(os.Stderr, "host bench: %v\n", err)
			os.Exit(1)
		}
		if !*all && *fig == 0 && !*tables && !*explore {
			return
		}
	}
	if *explore {
		if err := runExploreReport(*jsonPath, *hostPath, *exhaust, *anchors); err != nil {
			fmt.Fprintf(os.Stderr, "explore: %v\n", err)
			os.Exit(1)
		}
		if !*all && *fig == 0 && !*tables {
			return
		}
	}
	if !*all && *fig == 0 && !*tables {
		flag.Usage()
		os.Exit(2)
	}
	start := time.Now()

	report := obs.NewBenchReport(*quick)
	if *tables || *all {
		fmt.Println(core.FormatCostTable())
		fmt.Println(sim.FormatTableIII())
	}
	if plan != nil {
		fmt.Printf("running %d report cells...\n", plan.Len())
		r, err := plan.Run()
		// A failed Fig. 11 or Fig. 15 cell fails the report, after the
		// figures that finished are printed.
		addFigures(report, r, *all, *fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if len(report.Figures) > 0 {
		if err := report.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	fmt.Printf("report generated in %s\n", time.Since(start).Round(time.Second))
}

// addFigures prints the selected figures of a report run and records them
// in the JSON report.
func addFigures(report *obs.BenchReport, r *sim.Report, all bool, fig int) {
	if r.Fig11 != nil {
		fmt.Println(sim.FormatFig11(r.Fig11))
		report.AddFigure("fig11", fig11Rows(r.Fig11))
	}
	if gap, spec := r.Gap, r.Spec; gap != nil {
		// Failed cells are reported but don't abort the report: the matrix
		// still carries their metrics, and a partial figure beats none.
		if gap.Err != nil {
			fmt.Printf("MATRIX FAILURES (gap):\n%v\n", gap.Err)
		}
		if spec.Err != nil {
			fmt.Printf("MATRIX FAILURES (spec):\n%v\n", spec.Err)
		}
		if all || fig == 12 {
			fmt.Println(sim.FormatFig12a(gap.M, gap.Names))
			fmt.Println(sim.FormatFig12a(spec.M, spec.Names))
			fmt.Println(sim.FormatFig12b(gap.M, gap.Names))
			report.AddFigure("fig12a.gap", speedupRows(gap.M, gap.Names))
			report.AddFigure("fig12a.spec", speedupRows(spec.M, spec.Names))
			report.AddFigure("fig12b", fig12bRows(gap.M, gap.Names))
		}
		if all || fig == 13 {
			fmt.Println(sim.FormatFig13a(gap.M, gap.Names))
			fmt.Println(sim.FormatFig13b(gap.M, gap.Names))
			fmt.Println(sim.FormatFig13c(gap.M, gap.Names))
			fmt.Println(sim.FormatFig13c(spec.M, spec.Names))
			report.AddFigure("fig13a", fig13aRows(gap.M, gap.Names))
			report.AddFigure("fig13b", fig13bRows(gap.M, gap.Names))
			report.AddFigure("fig13c.gap", fig13cRows(gap.M, gap.Names))
			report.AddFigure("fig13c.spec", fig13cRows(spec.M, spec.Names))
		}
		if all || fig == 14 {
			fmt.Println(sim.FormatFig14(gap.M, gap.Names))
			fmt.Println(sim.FormatFig14(spec.M, spec.Names))
			report.AddFigure("fig14.gap", fig14Rows(gap.M, gap.Names))
			report.AddFigure("fig14.spec", fig14Rows(spec.M, spec.Names))
		}
		addGeomeans(report, "gap", gap)
		addGeomeans(report, "spec", spec)
	}
	if r.Fig15a != nil {
		fmt.Println(sim.FormatFig15a(r.Fig15a))
		fmt.Println(sim.FormatFig15b(r.Fig15b))
		report.AddFigure("fig15a", fig15aRows(r.Fig15a))
		report.AddFigure("fig15b", fig15bRows(r.Fig15b))
	}
}

// addGeomeans records the geomean speedup over the suite of every
// non-baseline configuration as "<suite>.<config>".
func addGeomeans(report *obs.BenchReport, suite string, sm *sim.SuiteMatrix) {
	for _, c := range sm.Configs[1:] {
		var sp []float64
		for _, w := range sm.Names {
			sp = append(sp, sm.M.Speedup(w, c))
		}
		report.AddGeomean(suite+"."+c, stats.GeoMean(sp))
	}
}

func fig11Rows(rows []sim.Fig11Row) []map[string]any {
	out := make([]map[string]any, 0, len(rows))
	for _, r := range rows {
		out = append(out, map[string]any{"name": r.Name, "speedup": r.Speedup, "mpki": r.MPKI})
	}
	return out
}

func speedupRows(m sim.Matrix, names []string) []map[string]any {
	out := make([]map[string]any, 0, len(names))
	for _, w := range names {
		out = append(out, map[string]any{
			"workload": w,
			"perfBP":   m.Speedup(w, sim.CfgPerfect),
			"phelps":   m.Speedup(w, sim.CfgPhelps),
			"br":       m.Speedup(w, sim.CfgBR),
			"br-12w":   m.Speedup(w, sim.CfgBR12w),
		})
	}
	return out
}

func fig12bRows(m sim.Matrix, names []string) []map[string]any {
	out := make([]map[string]any, 0, len(names))
	for _, w := range names {
		out = append(out, map[string]any{
			"workload":       w,
			"with_stores":    m.Speedup(w, sim.CfgPhelps),
			"without_stores": m.Speedup(w, sim.CfgPhelpsNoStore),
		})
	}
	return out
}

func fig13aRows(m sim.Matrix, names []string) []map[string]any {
	out := make([]map[string]any, 0, len(names))
	for _, w := range names {
		baseR, phR := m[w][sim.CfgBase], m[w][sim.CfgPhelps]
		base, ph := baseR.MPKI(), phR.MPKI()
		red := 0.0
		if base > 0 {
			red = (base - ph) / base * 100
		}
		out = append(out, map[string]any{
			"workload": w, "base_mpki": base, "phelps_mpki": ph, "reduction_pct": red,
		})
	}
	return out
}

func fig13bRows(m sim.Matrix, names []string) []map[string]any {
	out := make([]map[string]any, 0, len(names))
	for _, w := range names {
		r := m[w][sim.CfgPhelps]
		ratio := 0.0
		if r.Retired > 0 {
			ratio = float64(r.Phelps.HTRetired) / float64(r.Retired) * 100
		}
		out = append(out, map[string]any{"workload": w, "ht_per_100_mt": ratio})
	}
	return out
}

func fig13cRows(m sim.Matrix, names []string) []map[string]any {
	out := make([]map[string]any, 0, len(names))
	for _, w := range names {
		s := m.Speedup(w, sim.CfgHalf)
		slow := 0.0
		if s > 0 {
			slow = (1/s - 1) * 100
		}
		out = append(out, map[string]any{"workload": w, "slowdown_pct": slow})
	}
	return out
}

func fig14Rows(m sim.Matrix, names []string) []map[string]any {
	out := make([]map[string]any, 0, len(names))
	for _, w := range names {
		r := m[w][sim.CfgPhelps]
		base := m[w][sim.CfgBase]
		elim := int64(base.Mispredicts) - int64(r.Mispredicts)
		if elim < 0 {
			elim = 0
		}
		residual := map[string]uint64{}
		for c := core.Category(0); c < core.NumCategories; c++ {
			if n := r.Phelps.Categories[c]; n > 0 {
				residual[c.String()] = n
			}
		}
		out = append(out, map[string]any{
			"workload": w, "base_mpki": base.MPKI(), "eliminated": elim, "residual": residual,
		})
	}
	return out
}

func fig15aRows(rows []sim.Fig15aRow) []map[string]any {
	out := make([]map[string]any, 0, len(rows))
	for _, r := range rows {
		out = append(out, map[string]any{
			"workload": r.Workload, "rob": r.ROB, "depth": r.Depth, "speedup": r.Speedup,
		})
	}
	return out
}

func fig15bRows(rows []sim.Fig15bRow) []map[string]any {
	out := make([]map[string]any, 0, len(rows))
	for _, r := range rows {
		out = append(out, map[string]any{
			"input": r.Input, "speedup": r.Speedup, "mpki_reduction_pct": r.MPKIRed,
		})
	}
	return out
}
