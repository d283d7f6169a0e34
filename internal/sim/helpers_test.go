package sim

import (
	"phelps/internal/bpred"
	"phelps/internal/cache"
	"phelps/internal/core"
	"phelps/internal/cpu"
	"phelps/internal/emu"
)

func newHier(cfg Config) *cache.Hierarchy { return cache.New(cfg.Cache) }

func hooksFor(ctrl *core.Controller, pred bpred.Predictor) cpu.Hooks {
	return cpu.Hooks{
		Predict: func(d *emu.DynInst) cpu.Prediction {
			base := pred.PredictAndTrain(d.PC, d.Taken)
			if p, handled := ctrl.Predict(d); handled {
				return p
			}
			return cpu.Prediction{Taken: base}
		},
		OnFetch:  ctrl.OnFetch,
		OnRetire: func(d *emu.DynInst, misp bool) { ctrl.OnRetire(d, misp) },
	}
}

func newCore(cfg Config, mem *emu.Memory, hier *cache.Hierarchy, e *emu.Emulator, hooks cpu.Hooks) *cpu.Core {
	return cpu.NewCore(cfg.Core, mem, hier, e.StepInto, hooks)
}

func runLoop(cfg Config, mt *cpu.Core, ctrl *core.Controller) {
	lanes := &cpu.LanePool{}
	for now := uint64(0); !mt.Halted(); now++ {
		if now > 100_000_000 {
			panic("runLoop: no progress")
		}
		lanes.Reset(&cfg.Core)
		ctrl.SetNow(now)
		if now%2 == 0 {
			mt.Cycle(now, lanes)
			ctrl.CycleEngines(now, lanes)
		} else {
			ctrl.CycleEngines(now, lanes)
			mt.Cycle(now, lanes)
		}
	}
}
