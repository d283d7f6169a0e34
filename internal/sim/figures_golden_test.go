package sim

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// Figure golden: the quick Fig. 11, 15a and 15b rows of the shared
// quick-report run, pinned exactly (JSON floats round-trip bit for bit).
// These figures build ad-hoc configurations outside the run matrix, so
// TestCycleExactnessGolden does not cover them.
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/sim -run TestFigureGolden

const figGoldenPath = "testdata/golden_figs_quick.json"

type figGolden struct {
	Fig11  []Fig11Row  `json:"fig11"`
	Fig15a []Fig15aRow `json:"fig15a"`
	Fig15b []Fig15bRow `json:"fig15b"`
}

func TestFigureGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	if testing.Short() && !update {
		t.Skip("quick figures skipped in -short mode (covered by the default run)")
	}
	r := quickReport(t)
	got := figGolden{Fig11: r.Fig11, Fig15a: r.Fig15a, Fig15b: r.Fig15b}

	if update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", figGoldenPath)
		return
	}
	data, err := os.ReadFile(figGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (%v); generate with UPDATE_GOLDEN=1", err)
	}
	var want figGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("bad golden file: %v", err)
	}
	if !reflect.DeepEqual(got.Fig11, want.Fig11) {
		t.Errorf("Fig. 11 drift:\n  golden: %+v\n  got:    %+v", want.Fig11, got.Fig11)
	}
	if !reflect.DeepEqual(got.Fig15a, want.Fig15a) {
		t.Errorf("Fig. 15a drift:\n  golden: %+v\n  got:    %+v", want.Fig15a, got.Fig15a)
	}
	if !reflect.DeepEqual(got.Fig15b, want.Fig15b) {
		t.Errorf("Fig. 15b drift:\n  golden: %+v\n  got:    %+v", want.Fig15b, got.Fig15b)
	}
}
