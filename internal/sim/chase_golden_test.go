package sim

import (
	"encoding/json"
	"os"
	"testing"
)

// Cycle-exactness pin for the memory-bound chase cells: chase and
// chase_nested at full size under base and phelps, Table III settings — the
// cells the chase_mem host benchmark times. The quick-matrix golden does not
// cover them, so without this pin a host-speed change to the core or the
// helper-thread engines could move these cells unnoticed. Regenerate
// deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/sim -run TestChaseMemGolden
//
// and treat any diff as a timing-model change.

const chaseGoldenPath = "testdata/golden_chase.json"

type chaseCell struct {
	Workload    string `json:"workload"`
	Config      string `json:"config"`
	Cycles      uint64 `json:"cycles"`
	Retired     uint64 `json:"retired"`
	Mispredicts uint64 `json:"mispredicts"`
	QueuePreds  uint64 `json:"queue_preds"`
	HTRetired   uint64 `json:"ht_retired"`
}

type chaseGoldenFile struct {
	Schema int         `json:"schema"`
	Cells  []chaseCell `json:"cells"`
}

func TestChaseMemGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	if testing.Short() && !update {
		t.Skip("full-size chase cells skipped in -short mode")
	}
	var specs []Spec
	for _, name := range []string{"chase", "chase_nested"} {
		s, err := SpecByName(name, false)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	configs := []string{CfgBase, CfgPhelps}
	m, err := RunMatrix(specs, configs)
	if err != nil {
		t.Fatal(err)
	}
	var cells []chaseCell
	for _, s := range specs {
		for _, c := range configs {
			r := m[s.Name][c]
			if !r.Halted {
				t.Fatalf("%s/%s did not halt", s.Name, c)
			}
			cells = append(cells, chaseCell{
				Workload: s.Name, Config: c,
				Cycles: r.Cycles, Retired: r.Retired, Mispredicts: r.Mispredicts,
				QueuePreds: r.QueuePreds, HTRetired: r.Phelps.HTRetired,
			})
		}
	}

	if update {
		data, err := json.MarshalIndent(chaseGoldenFile{Schema: 1, Cells: cells}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(chaseGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(cells), chaseGoldenPath)
		return
	}

	data, err := os.ReadFile(chaseGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (%v); generate with UPDATE_GOLDEN=1", err)
	}
	var want chaseGoldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("bad golden file: %v", err)
	}
	if len(want.Cells) != len(cells) {
		t.Fatalf("cell count changed: got %d, golden has %d", len(cells), len(want.Cells))
	}
	for i, got := range cells {
		if w := want.Cells[i]; got != w {
			t.Errorf("%s/%s: timing drift:\n  golden: %+v\n  got:    %+v", got.Workload, got.Config, w, got)
		}
	}
}
