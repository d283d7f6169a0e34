package runahead

import (
	"phelps/internal/cache"
	"phelps/internal/core"
	"phelps/internal/cpu"
	"phelps/internal/emu"
	"phelps/internal/isa"
	"phelps/internal/obs"
)

// Controller drives the Branch Runahead baseline: delinquency
// identification (same DBT machinery as Phelps — both derive from the same
// misprediction-counting requirements), chain construction via backward
// slicing, and the chain partition's execution.
type Controller struct {
	cfg     Config
	coreCfg cpu.Config

	mem  *emu.Memory
	hier *cache.Hierarchy
	mt   *cpu.Core

	dbt          *core.DBT
	trips        *core.TripStats
	lastBackward core.LoopBounds
	constructing *core.Construction
	rejected     map[uint64]bool

	// Installed chain program (the union of per-branch chains).
	prog    *core.HelperProgram
	loop    core.LoopBounds
	startPC uint64

	// Active chain engine state.
	engine   *core.Engine
	queues   *brQueues
	qidOf    map[uint64]int // branch PC -> queue id
	loopPC   uint64
	mtIter   uint64
	suppress bool

	// Pooled across triggers: the chain program is installed once, so the
	// engine window, spec cache, guard routing, and live-in staging are
	// trigger-invariant allocations.
	enginePool    *core.Engine
	specPool      *core.SpecCache
	queuesPool    *brQueues
	guards        []int
	dirs          []bool
	liveInScratch []uint64

	partitioned bool
	epochInsts  uint64
	now         uint64

	Stats Stats
}

// NewController builds a Branch Runahead controller.
func NewController(cfg Config, coreCfg cpu.Config, mem *emu.Memory, hier *cache.Hierarchy) *Controller {
	return &Controller{
		cfg:      cfg,
		coreCfg:  coreCfg,
		mem:      mem,
		hier:     hier,
		dbt:      core.NewDBT(cfg.DBTSize),
		trips:    core.NewTripStats(),
		rejected: make(map[uint64]bool),
		qidOf:    make(map[uint64]int),
	}
}

// AttachCore links the main-thread core.
func (c *Controller) AttachCore(mt *cpu.Core) { c.mt = mt }

// ResetStats zeroes the controller's counters without touching chain or
// queue state (sampled simulation's warmup/measure boundary). Pointers into
// the Stats field (brQueues) stay valid: the field is reassigned in place.
func (c *Controller) ResetStats() { c.Stats = Stats{} }

// RegisterObs registers the controller's counters and gauges into an
// observability registry under scope (e.g. "runahead" yields
// runahead.ctrl.chains_built, ...).
func (c *Controller) RegisterObs(r *obs.Registry, scope string) {
	ct := r.Scope(scope).Scope("ctrl")
	ct.Counter("chains_built", func() uint64 { return c.Stats.ChainsBuilt })
	ct.Counter("triggers", func() uint64 { return c.Stats.Triggers })
	ct.Counter("chain_retired", func() uint64 { return c.Stats.ChainRetired })
	ct.Counter("rollbacks", func() uint64 { return c.Stats.Rollbacks })
	ct.Counter("late_triggers", func() uint64 { return c.Stats.LateTriggers })
	ct.Counter("queue_consumed", func() uint64 { return c.Stats.QueueConsumed })
	ct.Counter("queue_stale", func() uint64 { return c.Stats.QueueStale })
	ct.Counter("queue_unavailable", func() uint64 { return c.Stats.QueueUnavailable })
	ct.Gauge("active_engines", func() float64 {
		if c.engine != nil {
			return 1
		}
		return 0
	})
}

// SetNow updates the controller clock.
func (c *Controller) SetNow(now uint64) { c.now = now }

func (c *Controller) threshold() uint64 {
	t := c.cfg.EpochLen / c.cfg.ThresholdDivisor
	if t < 4 {
		t = 4
	}
	return t
}

// Predict consumes a chain prediction for the branch at d.PC, if available.
func (c *Controller) Predict(d *emu.DynInst) (cpu.Prediction, bool) {
	if c.engine == nil {
		return cpu.Prediction{}, false
	}
	if d.PC == c.loopPC {
		// Count main-thread iterations for entry-tag alignment.
		var p cpu.Prediction
		handled := false
		if qi, ok := c.qidOf[d.PC]; ok {
			if out, got := c.queues.consume(qi, c.mtIter, c.now); got {
				p, handled = cpu.Prediction{Taken: out, FromQueue: true}, true
			}
		}
		c.mtIter++
		return p, handled
	}
	if qi, ok := c.qidOf[d.PC]; ok {
		if out, got := c.queues.consume(qi, c.mtIter, c.now); got {
			return cpu.Prediction{Taken: out, FromQueue: true}, true
		}
	}
	return cpu.Prediction{}, false
}

// OnRetire trains tables, runs construction, and triggers/terminates the
// chain engine.
func (c *Controller) OnRetire(d *emu.DynInst, misp bool) {
	pc := d.PC
	if d.Inst.Op.IsCondBranch() {
		if d.Taken && d.NextPC < pc {
			c.lastBackward = core.LoopBounds{Branch: pc, Target: d.NextPC, Valid: true}
		}
		if pc > pc+uint64(d.Inst.Imm) {
			c.trips.Record(pc, d.Taken)
		}
		if misp {
			c.dbt.RecordMisp(pc)
		}
		c.dbt.TrainLoop(pc, c.lastBackward)
	}

	if c.constructing != nil && c.constructing.Reject() == core.RejectNone {
		c.constructing.ObserveRetire(&core.RetireEvent{
			PC: pc, Inst: d.Inst, Taken: d.Taken, Addr: d.Addr, Size: d.MemSize,
		})
	}

	c.epochInsts++
	if c.epochInsts >= c.cfg.EpochLen {
		c.epochInsts = 0
		c.epochTurnover()
	}

	if c.engine != nil {
		if !c.loop.Contains(pc) {
			c.terminate()
		}
	} else if c.prog != nil {
		if c.suppress && !c.loop.Contains(pc) {
			c.suppress = false
		}
		if !c.suppress && pc == c.startPC {
			c.trigger()
		}
	}
}

// OnFetch collects loop instructions during construction.
func (c *Controller) OnFetch(d *emu.DynInst) {
	if c.constructing != nil && c.constructing.Reject() == core.RejectNone {
		c.constructing.CollectFetch(d.PC, d.Inst)
	}
}

// CycleChains advances the chain partition.
func (c *Controller) CycleChains(now uint64, lanes *cpu.LanePool) {
	if c.engine == nil {
		return
	}
	c.engine.Cycle(now, lanes)
	if c.engine.Done() {
		c.terminate()
	}
}

func (c *Controller) epochTurnover() {
	if con := c.constructing; con != nil {
		progs, reject := con.Finalize(c.trips)
		if reject == core.RejectNone && len(progs) == 1 {
			c.install(con, progs[0])
		} else {
			c.rejected[con.LT.Loop.Branch] = true
			if c.Stats.RejectedLoops == nil {
				c.Stats.RejectedLoops = make(map[uint64]core.RejectReason)
			}
			c.Stats.RejectedLoops[con.LT.Loop.Branch] = reject
		}
		c.constructing = nil
	}
	if c.prog == nil && c.constructing == nil {
		// Chains are built per delinquent branch; they live within the
		// branch's innermost loop (prior-instance-of-self termination).
		lt := core.BuildLT(c.dbt, c.cfg.DBTMaxSize, 8, c.threshold())
		for _, entry := range lt {
			if c.rejected[entry.Loop.Branch] {
				continue
			}
			// BR has no dual decoupled threads: force single-level slicing
			// over the branch's innermost loop when nested.
			e := entry
			if entry.IsNested {
				flat := *entry
				flat.Loop = entry.InnerLoop
				flat.IsNested = false
				// Keep only branches within the inner loop.
				var pcs []uint64
				for _, bpc := range entry.Branches {
					if entry.InnerLoop.Contains(bpc) {
						pcs = append(pcs, bpc)
					}
				}
				if len(pcs) == 0 {
					continue
				}
				flat.Branches = pcs
				e = &flat
			}
			cc := c.cfg.Construction
			cc.IncludeStores = false
			cc.MinTrips = 1      // BR does not amortize start/stop like Phelps
			cc.SizeRulePct = 400 // chains have no 75% size eligibility rule
			c.constructing = core.NewConstruction(cc, e)
			break
		}
	}
	c.dbt.Reset()
	c.trips.Reset()
}

func (c *Controller) install(con *core.Construction, p *core.HelperProgram) {
	c.prog = p
	c.loop = con.LT.Loop
	c.startPC = con.LT.Loop.Target
	c.loopPC = p.LoopBranch
	c.Stats.ChainsBuilt += uint64(len(p.QueuePCs))

	// Guard relationships between chains and the PC->queue routing are
	// properties of the installed program: compute them once here rather
	// than on every trigger.
	n := len(p.QueuePCs)
	c.guards = make([]int, n)
	c.dirs = make([]bool, n)
	for i := range c.guards {
		c.guards[i] = -1
	}
	qidByPred := make(map[isa.PredReg]int)
	for i := range p.Insts {
		hi := &p.Insts[i]
		if hi.QueueID >= 0 && hi.Inst.Op == isa.PPRODUCE {
			qidByPred[hi.Inst.PredDst] = hi.QueueID
		}
	}
	for i := range p.Insts {
		hi := &p.Insts[i]
		if hi.QueueID >= 0 && hi.Inst.Op == isa.PPRODUCE && hi.Inst.PredSrc != isa.Pred0 {
			if g, ok := qidByPred[hi.Inst.PredSrc]; ok {
				c.guards[hi.QueueID] = g
				c.dirs[hi.QueueID] = hi.Inst.PredDir
			}
		}
	}
	c.qidOf = make(map[uint64]int, n)
	for i, pc := range p.QueuePCs {
		c.qidOf[pc] = i
	}
	// Static partition: the main thread loses half its resources for the
	// rest of the run (the paper's BR configuration).
	if c.cfg.StaticPartition && !c.partitioned {
		c.mt.SetLimits(c.coreCfg.FullLimits().Scale(1, 2))
		c.partitioned = true
	}
}

// trigger starts the chain engine at a loop visit. The pipeline is squashed
// so the chains' snooped register values correspond to the main thread's
// restart point.
func (c *Controller) trigger() {
	c.Stats.Triggers++
	now := c.now
	c.mt.SquashAll(now)

	if c.queuesPool == nil {
		c.queuesPool = newBRQueues(&c.cfg, &c.Stats, len(c.prog.QueuePCs), c.guards, c.dirs, func() uint64 { return c.now })
	} else {
		c.queuesPool.reset()
	}
	c.queues = c.queuesPool
	c.mtIter = 0

	// Both BR configurations give the chain partition half the full machine.
	chainLim := c.coreCfg.FullLimits().Scale(1, 2)
	liveIns := c.liveInScratch[:0]
	for _, r := range c.prog.LiveInsMT {
		liveIns = append(liveIns, c.mt.ArchReg(r))
	}
	c.liveInScratch = liveIns
	// Chains have no live-in move protocol like Phelps; they snoop values
	// at trigger. Start promptly.
	startAt := now + c.coreCfg.FrontendLatency()
	if c.specPool == nil {
		c.specPool = core.NewSpecCache(1, 1) // unused: chains have no stores
	} else {
		c.specPool.ResetAll()
	}
	if c.enginePool == nil {
		c.enginePool = core.NewEngine(c.prog, c.queues, c.specPool, nil, c.mem, c.hier, c.coreCfg, chainLim, liveIns, startAt)
	} else {
		c.enginePool.Reinit(c.prog, c.queues, c.specPool, nil, c.mem, c.hier, c.coreCfg, chainLim, liveIns, startAt)
	}
	c.engine = c.enginePool
	c.queues.engine = c.engine
}

func (c *Controller) terminate() {
	if c.engine == nil {
		return
	}
	st := c.engine.Stats
	c.Stats.ChainRetired += st.Retired
	c.engine = nil
	c.queues = nil
	c.suppress = true
	// The static partition persists (resources are NOT returned): this is
	// the BR cost the paper highlights in Fig. 12a.
	if !c.cfg.StaticPartition {
		c.mt.SetLimits(c.coreCfg.FullLimits())
	}
}
