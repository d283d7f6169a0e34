package sim

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strconv"
	"testing"

	"phelps/internal/obs"
	"phelps/internal/prog"
)

// mustSampled runs SampledRun and fails the test on error.
func mustSampled(t *testing.T, spec Spec, cfg Config, sc SampleConfig) Result {
	t.Helper()
	r, err := SampledRun(spec, cfg, sc)
	if err != nil {
		t.Fatalf("SampledRun(%s): %v", spec.Name, err)
	}
	return r
}

// goldenBaseIPC loads the checked-in golden matrix and returns workload ->
// full-run IPC under the baseline config.
func goldenBaseIPC(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (%v); generate with UPDATE_GOLDEN=1", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("bad golden file: %v", err)
	}
	out := make(map[string]float64)
	for _, c := range g.Cells {
		if c.Config != CfgBase {
			continue
		}
		ipc, err := strconv.ParseFloat(c.IPC, 64)
		if err != nil {
			t.Fatalf("golden %s/%s: bad IPC %q", c.Workload, c.Config, c.IPC)
		}
		out[c.Workload] = ipc
	}
	return out
}

// Sampled golden: every quick workload's sampled base run, pinned exactly —
// the reconstructed totals and each SimPoint's measurement (JSON floats
// round-trip bit for bit). The checkpoint artifact's byte pin
// (TestCkptArtifactFormatPinned) covers what the functional passes produce;
// this covers what measurement makes of it. Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/sim -run TestSampledAccuracyVsGolden

const sampledGoldenPath = "testdata/golden_sampled_quick.json"

type sampledGoldenPoint struct {
	Interval int     `json:"interval"`
	Weight   float64 `json:"weight"`
	Warmed   uint64  `json:"warmed"`
	Measured uint64  `json:"measured"`
	Cycles   uint64  `json:"cycles"`
}

type sampledGoldenCell struct {
	Workload     string               `json:"workload"`
	Cycles       uint64               `json:"cycles"`
	Retired      uint64               `json:"retired"`
	CondBranches uint64               `json:"cond_branches"`
	Mispredicts  uint64               `json:"mispredicts"`
	Points       []sampledGoldenPoint `json:"points"`
}

type sampledGoldenFile struct {
	Schema int                 `json:"schema"`
	Cells  []sampledGoldenCell `json:"cells"`
}

func sampledGoldenCellOf(name string, res Result) sampledGoldenCell {
	c := sampledGoldenCell{Workload: name, Cycles: res.Cycles, Retired: res.Retired,
		CondBranches: res.CondBranches, Mispredicts: res.Mispredicts}
	for _, p := range res.Sampled.Points {
		c.Points = append(c.Points, sampledGoldenPoint{Interval: p.Interval, Weight: p.Weight,
			Warmed: p.Warmed, Measured: p.Measured, Cycles: p.Cycles})
	}
	return c
}

// TestSampledAccuracyVsGolden is the acceptance gate for sampled simulation:
// on every quick-profile workload, the SimPoint-reconstructed IPC must land
// within 10% of the full cycle-accurate run pinned in the golden file, and
// the sampled run itself must match the sampled golden exactly.
func TestSampledAccuracyVsGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	if testing.Short() && !update {
		t.Skip("sampled accuracy sweep skipped in -short mode")
	}
	golden := goldenBaseIPC(t)
	specs := append(GapSpecs(true), SpecCPUSpecs(true)...)
	pinned := make(map[string]sampledGoldenCell)
	if !update {
		data, err := os.ReadFile(sampledGoldenPath)
		if err != nil {
			t.Fatalf("missing golden (%v); generate with UPDATE_GOLDEN=1", err)
		}
		var want sampledGoldenFile
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("bad golden file: %v", err)
		}
		if len(want.Cells) != len(specs) {
			t.Fatalf("workload count changed: %d workloads, golden has %d", len(specs), len(want.Cells))
		}
		for _, c := range want.Cells {
			pinned[c.Workload] = c
		}
	}
	cells := make([]sampledGoldenCell, len(specs))
	if update {
		// Parallel subtests finish before the parent's cleanups run.
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			data, err := json.MarshalIndent(sampledGoldenFile{Schema: 1, Cells: cells}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(sampledGoldenPath, append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %d workloads to %s", len(cells), sampledGoldenPath)
		})
	}
	for i, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			want, ok := golden[spec.Name]
			if !ok {
				t.Fatalf("no golden base cell for %s", spec.Name)
			}
			res := mustSampled(t, spec, mustConfig(CfgBase, spec.Epoch), SampleConfig{})
			got := res.IPC()
			errPct := (got - want) / want * 100
			rep := res.Sampled
			t.Logf("sampled IPC %.4f vs full %.4f (%+.2f%%), %d intervals of %d, %d points, fullrun=%v",
				got, want, errPct, rep.Intervals, rep.IntervalLen, len(rep.Points), rep.FullRun)
			if errPct < -10 || errPct > 10 {
				t.Errorf("sampled IPC %.4f off golden %.4f by %+.2f%% (limit 10%%)", got, want, errPct)
			}
			cells[i] = sampledGoldenCellOf(spec.Name, res)
			if update {
				return
			}
			if pin, ok := pinned[spec.Name]; !ok {
				t.Errorf("no sampled golden cell for %s", spec.Name)
			} else if !reflect.DeepEqual(cells[i], pin) {
				t.Errorf("sampled drift:\n  golden: %+v\n  got:    %+v", pin, cells[i])
			}
		})
	}
}

// TestSampledRunFallbackTinyWorkload: workloads too short to chunk into
// MinIntervals intervals fall back to a full run, flagged in the report.
func TestSampledRunFallbackTinyWorkload(t *testing.T) {
	spec := Spec{
		Name:  "tiny",
		Build: func() *prog.Workload { return prog.PredictableLoop(1_000) },
	}
	res := mustSampled(t, spec, DefaultConfig(), SampleConfig{})
	if res.Sampled == nil || !res.Sampled.FullRun {
		t.Fatalf("tiny workload should fall back to a full run, report: %+v", res.Sampled)
	}
	if len(res.Sampled.Points) != 0 {
		t.Errorf("fallback run has %d points", len(res.Sampled.Points))
	}
	if !res.Halted {
		t.Error("fallback run did not halt")
	}
}

// TestSampledRunDeterminism: same spec, same SampleConfig, same Result —
// clustering is seeded and the machines are deterministic.
func TestSampledRunDeterminism(t *testing.T) {
	spec := Spec{
		Name:  "dl",
		Build: func() *prog.Workload { return prog.DelinquentLoop(30_000, 50, 1) },
	}
	a := mustSampled(t, spec, DefaultConfig(), SampleConfig{})
	b := mustSampled(t, spec, DefaultConfig(), SampleConfig{})
	if a.Cycles != b.Cycles || a.Retired != b.Retired || a.Mispredicts != b.Mispredicts {
		t.Errorf("sampled runs diverge: (%d cyc, %d ret, %d misp) vs (%d cyc, %d ret, %d misp)",
			a.Cycles, a.Retired, a.Mispredicts, b.Cycles, b.Retired, b.Mispredicts)
	}
	for i := range a.Sampled.Points {
		pa, pb := a.Sampled.Points[i], b.Sampled.Points[i]
		if pa != pb {
			t.Errorf("point %d differs: %+v vs %+v", i, pa, pb)
		}
	}
}

// TestSampledRunPointsShape sanity-checks the report invariants on a
// workload long enough to sample for real.
func TestSampledRunPointsShape(t *testing.T) {
	spec := Spec{
		Name:  "dl",
		Build: func() *prog.Workload { return prog.DelinquentLoop(30_000, 50, 1) },
	}
	res := mustSampled(t, spec, DefaultConfig(), SampleConfig{K: 3})
	rep := res.Sampled
	if rep.FullRun {
		t.Fatal("workload unexpectedly fell back to a full run")
	}
	// K scales the clustered points (at most 2K, see simpoint.Pick); the
	// mandatory cold-start point adds one more.
	if len(rep.Points) == 0 || len(rep.Points) > 7 {
		t.Fatalf("got %d points for K=3", len(rep.Points))
	}
	var wsum float64
	for _, p := range rep.Points {
		wsum += p.Weight
		if p.Measured == 0 || p.Cycles == 0 {
			t.Errorf("point %d measured nothing: %+v", p.Interval, p)
		}
		if p.StartInst != uint64(p.Interval)*rep.IntervalLen {
			t.Errorf("point %d: StartInst %d != interval*len %d", p.Interval, p.StartInst, uint64(p.Interval)*rep.IntervalLen)
		}
	}
	if wsum < 0.99 || wsum > 1.01 {
		t.Errorf("point weights sum to %.4f, want ~1", wsum)
	}
	if res.Retired != rep.TotalInsts {
		t.Errorf("Result.Retired %d != profiled total %d", res.Retired, rep.TotalInsts)
	}
}

// TestSampledRunRejectsObs: the observability collector is single-machine
// state; sampled runs must refuse it rather than race.
func TestSampledRunRejectsObs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Obs = obs.NewCollector(0)
	spec := Spec{
		Name:  "dl",
		Build: func() *prog.Workload { return prog.DelinquentLoop(30_000, 50, 1) },
	}
	if _, err := SampledRun(spec, cfg, SampleConfig{}); err == nil {
		t.Fatal("SampledRun accepted a Config with Obs set")
	}
}

// TestSampledRunRejectsNegativeK: a negative SimPoint count is bad input,
// rejected with a plain error before any pass runs, never a contained panic.
func TestSampledRunRejectsNegativeK(t *testing.T) {
	spec := Spec{Name: "dl", Build: func() *prog.Workload {
		t.Error("SampledRun built the workload before rejecting K")
		return prog.DelinquentLoop(30_000, 50, 1)
	}}
	_, err := SampledRun(spec, DefaultConfig(), SampleConfig{K: -1})
	if err == nil || errors.Is(err, ErrPanic) {
		t.Fatalf("SampledRun with K = -1 returned %v, want a plain error", err)
	}
}
