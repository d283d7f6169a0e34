package sim

import (
	"testing"

	"phelps/internal/prog"
)

// Alloc gates for the simulation hot path. Each run includes one-time machine
// construction (a few hundred allocations), so the budgets are expressed per
// simulated instruction and sized an order of magnitude above the measured
// steady state but far below the regressions they guard against:
//
//   - phelps mode sat at 0.197 allocs/sim-inst before helper-thread
//     activations (engines, queue sets, spec caches, visit queues) were
//     pooled per HTC row;
//   - runahead mode paid per-trigger brQueues/Bimodal construction plus a
//     re-slicing FIFO that lost its backing capacity on every pop;
//   - the nested case (the chase_nested shape: outer and inner helper
//     threads plus the visit queue) keeps the engines' issue indexes and
//     their selection scratch pooled across the inner thread's thousands of
//     visits, each of which squashes and refills its window.
//
// A budget of 0.005 allocs/sim-inst keeps all of those dead while tolerating
// setup noise on the short workloads used here.
func TestSimAllocGates(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs a full workload run")
	}
	delinquent := func() *prog.Workload { return prog.DelinquentLoop(50_000, 50, 1) }
	cases := []struct {
		name  string
		build func() *prog.Workload
		cfg   Config
	}{
		{"base", delinquent, DefaultConfig()},
		{"phelps", delinquent, PhelpsConfig(50_000)},
		{"runahead", delinquent, func() Config {
			c := DefaultConfig()
			c.Mode = ModeRunahead
			return c
		}()},
		{"phelps-nested", func() *prog.Workload { return prog.DelinquentChaseNested(1<<16, 10_000, 6, 1) },
			PhelpsConfig(50_000)},
	}
	const budget = 0.005 // allocs per simulated instruction
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var res Result
			allocs := testing.AllocsPerRun(1, func() {
				var err error
				if res, err = Run(c.build(), c.cfg); err != nil {
					t.Fatal(err)
				}
			})
			retired := res.Retired
			if c.name == "phelps-nested" && res.Phelps.HTVisits == 0 {
				t.Fatal("nested case never ran an inner-thread visit")
			}
			perInst := allocs / float64(retired)
			t.Logf("%s: %.0f allocs/run, %d retired, %.6f allocs/sim-inst", c.name, allocs, retired, perInst)
			if perInst > budget {
				t.Errorf("%s: %.6f allocs/sim-inst exceeds budget %.3f (%.0f allocs for %d insts)",
					c.name, perInst, budget, allocs, retired)
			}
		})
	}
}
