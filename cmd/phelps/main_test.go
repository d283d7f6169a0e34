package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"phelps/internal/sim"
)

// TestRunErrorReporting: text and JSON mode share one exit rule (any run
// error exits 1, except ErrLivelock), and -json reports any run error in its
// one "error" field.
func TestRunErrorReporting(t *testing.T) {
	wrap := func(sentinel error) error { return fmt.Errorf("sim: delinquent: %w: detail", sentinel) }
	cases := []struct {
		name string
		err  error
		exit int
	}{
		{"ok", nil, 0},
		{"livelock", wrap(sim.ErrLivelock), 0},
		{"verify", wrap(sim.ErrVerify), 1},
		{"check", wrap(sim.ErrCheck), 1},
		{"stall", wrap(sim.ErrStall), 1},
		{"panic", wrap(sim.ErrPanic), 1},
		{"plain", errors.New("sim: SampleConfig.K is -1, want at least 0"), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := exitCode(c.err); got != c.exit {
				t.Errorf("exit code %d, want %d", got, c.exit)
			}
			var buf bytes.Buffer
			if err := emitJSON(&buf, "delinquent", "base", "tage", 50_000, &sim.Result{}, c.err, nil); err != nil {
				t.Fatal(err)
			}
			var out map[string]any
			if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
			got, present := out["error"]
			switch {
			case c.err == nil && present:
				t.Errorf(`successful run has "error": %v`, got)
			case c.err != nil && got != c.err.Error():
				t.Errorf(`"error" is %v, want %q`, got, c.err.Error())
			}
		})
	}
}

// TestPrintedPredictor: phelps names the predictor its resolved
// configuration runs. Every registered configuration prints its own
// predictor whatever -pred says (perfBP: perfect), a -mode run prints the
// -pred it was given, and an unknown -pred is an error.
func TestPrintedPredictor(t *testing.T) {
	printed := func(cfg sim.Config) string {
		t.Helper()
		var buf bytes.Buffer
		if err := emitJSON(&buf, "guarded", "label", cfg.Predictor.String(), 0, &sim.Result{}, nil, nil); err != nil {
			t.Fatal(err)
		}
		var out struct{ Predictor string }
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.Predictor
	}
	for _, name := range sim.ConfigNames() {
		reg, err := sim.ConfigByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		label, cfg, err := resolveConfig("baseline", name, "gshare", 0)
		if err != nil || label != name {
			t.Fatalf("-config %s: label %q, err %v", name, label, err)
		}
		if got, want := printed(cfg), reg.Predictor.String(); got != want {
			t.Errorf("-config %s prints predictor %q, want %q", name, got, want)
		}
	}
	if _, cfg, _ := resolveConfig("baseline", sim.CfgPerfect, "tage", 0); printed(cfg) != "perfect" {
		t.Errorf("-config %s prints predictor %q, want perfect", sim.CfgPerfect, printed(cfg))
	}
	for _, pred := range []string{"tage", "perfect", "bimodal", "gshare"} {
		if _, cfg, err := resolveConfig("runahead", "", pred, 0); err != nil || printed(cfg) != pred {
			t.Errorf("-mode runahead -pred %s prints predictor %q (err %v)", pred, printed(cfg), err)
		}
	}
	if _, _, err := resolveConfig("baseline", "", "oracle", 0); err == nil || err.Error() != `unknown predictor "oracle"` {
		t.Errorf("-pred oracle: err %v, want unknown predictor", err)
	}
}
