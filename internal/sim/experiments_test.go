package sim

import (
	"strings"
	"testing"

	"phelps/internal/prog"
)

func TestConfigRegistryMaterializesEveryName(t *testing.T) {
	names := ConfigNames()
	want := []string{CfgBase, CfgPerfect, CfgPhelps, CfgPhelpsNoStore, CfgBR, CfgBR12w, CfgHalf}
	if len(names) != len(want) {
		t.Fatalf("ConfigNames() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("ConfigNames()[%d] = %q, want %q", i, names[i], n)
		}
	}
	for _, n := range names {
		cfg, err := ConfigByName(n, 12345)
		if err != nil {
			t.Fatalf("ConfigByName(%q): %v", n, err)
		}
		if ConfigDescription(n) == "" {
			t.Errorf("%s: empty description", n)
		}
		switch n {
		case CfgPerfect:
			if cfg.Predictor != PredPerfect {
				t.Errorf("%s: predictor %v", n, cfg.Predictor)
			}
		case CfgPhelps:
			if cfg.Mode != ModePhelps || cfg.Phelps.EpochLen != 12345 {
				t.Errorf("%s: %+v", n, cfg.Phelps)
			}
		case CfgPhelpsNoStore:
			if cfg.Phelps.Construction.IncludeStores {
				t.Errorf("%s keeps stores", n)
			}
		case CfgBR:
			if cfg.Mode != ModeRunahead || !cfg.Runahead.StaticPartition {
				t.Errorf("%s: %+v", n, cfg.Runahead)
			}
		case CfgBR12w:
			if cfg.Runahead.StaticPartition {
				t.Errorf("%s statically partitions", n)
			}
		case CfgHalf:
			if !cfg.ForcePartition {
				t.Errorf("%s: no partition", n)
			}
		}
	}
}

func TestConfigByNameUnknown(t *testing.T) {
	if _, err := ConfigByName("no-such-config", 0); err == nil {
		t.Fatal("ConfigByName accepted an unknown name")
	} else if !strings.Contains(err.Error(), CfgBase) {
		t.Errorf("error should list valid names, got: %v", err)
	}
	// The offending name must appear too, so a typo in a daemon request is
	// diagnosable straight from the 400 body.
	if _, err := ConfigByName("phlps", 0); err == nil || !strings.Contains(err.Error(), "phlps") {
		t.Errorf("error should quote the unknown name, got: %v", err)
	}
	// An empty name is not a default, it is an error.
	if _, err := ConfigByName("", 0); err == nil {
		t.Error("ConfigByName accepted an empty name")
	}
}

func TestSpecByName(t *testing.T) {
	// Every registered spec must be findable by its own name, in both
	// profiles, and build a workload under that name.
	for _, quick := range []bool{false, true} {
		for _, want := range AllSpecs(quick) {
			got, err := SpecByName(want.Name, quick)
			if err != nil {
				t.Fatalf("SpecByName(%q, %v): %v", want.Name, quick, err)
			}
			if got.Name != want.Name || got.Epoch != want.Epoch {
				t.Errorf("SpecByName(%q, %v) = %q epoch %d, want %q epoch %d",
					want.Name, quick, got.Name, got.Epoch, want.Name, want.Epoch)
			}
		}
	}
	if _, err := SpecByName("no-such-workload", true); err == nil {
		t.Fatal("SpecByName accepted an unknown name")
	} else if !strings.Contains(err.Error(), "no-such-workload") || !strings.Contains(err.Error(), "astar") {
		t.Errorf("error should quote the unknown name and list valid ones, got: %v", err)
	}
}

func TestMatrixAndFormatters(t *testing.T) {
	// A miniature matrix on one tiny workload exercises the formatters.
	specs := []Spec{{
		Name:  "micro",
		Build: func() *prog.Workload { return prog.DelinquentLoop(8000, 50, 1) },
		Epoch: 4000,
	}}
	m, err := RunMatrix(specs, []string{CfgBase, CfgPerfect, CfgPhelps, CfgPhelpsNoStore, CfgBR, CfgBR12w, CfgHalf})
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	if s := m.Speedup("micro", CfgPerfect); s <= 1.0 {
		t.Errorf("perfect BP speedup = %.2f, want > 1", s)
	}
	order := []string{"micro"}
	for name, out := range map[string]string{
		"12a": FormatFig12a(m, order),
		"12b": FormatFig12b(m, order),
		"13a": FormatFig13a(m, order),
		"13b": FormatFig13b(m, order),
		"13c": FormatFig13c(m, order),
		"14":  FormatFig14(m, order),
	} {
		if !strings.Contains(out, "micro") {
			t.Errorf("formatter %s missing workload row:\n%s", name, out)
		}
	}
	if !strings.Contains(FormatTableIII(), "632/696/144/144/128") {
		t.Error("Table III missing window sizes")
	}
}

func TestScaleWindow(t *testing.T) {
	cfg := DefaultConfig()
	ScaleWindow(&cfg, 1024, 19)
	if cfg.Core.ROB != 1024 || cfg.Core.PipelineDepth != 19 {
		t.Errorf("core: %+v", cfg.Core)
	}
	if cfg.Core.LQ <= 144 || cfg.Core.PRF <= 696 {
		t.Errorf("resources not scaled up: LQ=%d PRF=%d", cfg.Core.LQ, cfg.Core.PRF)
	}
	ScaleWindow(&cfg, 320, 11)
	if cfg.Core.LQ >= 144 {
		t.Errorf("resources not scaled down: LQ=%d", cfg.Core.LQ)
	}
}

func TestGapAndSpecSuitesBuildable(t *testing.T) {
	// Every spec must build a verifiable workload (functional check only;
	// the timing runs are covered by the benchmarks and sim tests).
	for _, s := range append(GapSpecs(true), SpecCPUSpecs(true)...) {
		w := s.Build()
		if err := prog.RunAndVerify(w); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}
