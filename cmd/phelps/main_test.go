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
