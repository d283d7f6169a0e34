package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Cycle-exactness golden harness. The host-performance work (page-shadow
// memory overlay, pooled ROB, fixed-size prefetcher tables) must not change
// a single simulated cycle, so this test pins the headline metrics of every
// quick-profile workload × configuration cell. Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/sim -run TestCycleExactnessGolden
//
// and review the diff: any change here is a timing-model change, not a
// host-perf change, and needs its own justification.

const goldenPath = "testdata/golden_quick.json"

type goldenCell struct {
	Suite       string `json:"suite"`
	Workload    string `json:"workload"`
	Config      string `json:"config"`
	Cycles      uint64 `json:"cycles"`
	Retired     uint64 `json:"retired"`
	Mispredicts uint64 `json:"mispredicts"`
	MPKI        string `json:"mpki"`
	IPC         string `json:"ipc"`
}

type goldenFile struct {
	Schema int          `json:"schema"`
	Cells  []goldenCell `json:"cells"`
}

// runGoldenCells reads every run-matrix cell of the shared quick-report run
// (quickReport), so the gate covers the exact path phelpsreport -quick runs.
func runGoldenCells(t *testing.T) []goldenCell {
	t.Helper()
	r := quickReport(t)
	var cells []goldenCell
	for _, suite := range []struct {
		name string
		sm   *SuiteMatrix
	}{{"gap", r.Gap}, {"spec", r.Spec}} {
		if suite.sm.Err != nil {
			t.Fatalf("%s matrix: %v", suite.name, suite.sm.Err)
		}
		for _, w := range suite.sm.Names {
			for _, c := range suite.sm.Configs {
				res, ok := suite.sm.M[w][c]
				if !ok {
					t.Fatalf("missing result for %s/%s/%s", suite.name, w, c)
				}
				cells = append(cells, goldenCell{
					Suite:       suite.name,
					Workload:    w,
					Config:      c,
					Cycles:      res.Cycles,
					Retired:     res.Retired,
					Mispredicts: res.Mispredicts,
					MPKI:        fmt.Sprintf("%.6f", res.MPKI()),
					IPC:         fmt.Sprintf("%.6f", res.IPC()),
				})
			}
		}
	}
	return cells
}

// TestCycleExactnessGolden compares every quick run-matrix cell against the
// checked-in golden. It is skipped under -short (the shared quick-report run
// is the cost).
func TestCycleExactnessGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	if testing.Short() && !update {
		t.Skip("full quick matrix skipped in -short mode (covered by the default run and verify.sh)")
	}

	cells := runGoldenCells(t)

	if update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(goldenFile{Schema: 1, Cells: cells}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(cells), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (%v); generate with UPDATE_GOLDEN=1", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("bad golden file: %v", err)
	}

	key := func(c goldenCell) string { return c.Suite + "/" + c.Workload + "/" + c.Config }
	wantBy := make(map[string]goldenCell, len(want.Cells))
	for _, c := range want.Cells {
		wantBy[key(c)] = c
	}
	if len(cells) != len(want.Cells) {
		t.Errorf("cell count changed: got %d, golden has %d", len(cells), len(want.Cells))
	}
	for _, got := range cells {
		w, ok := wantBy[key(got)]
		if !ok {
			t.Errorf("%s: no golden cell (new workload/config? regenerate deliberately)", key(got))
			continue
		}
		if got != w {
			t.Errorf("%s: timing drift:\n  golden: cycles=%d retired=%d misp=%d mpki=%s ipc=%s\n  got:    cycles=%d retired=%d misp=%d mpki=%s ipc=%s",
				key(got),
				w.Cycles, w.Retired, w.Mispredicts, w.MPKI, w.IPC,
				got.Cycles, got.Retired, got.Mispredicts, got.MPKI, got.IPC)
		}
	}
}
