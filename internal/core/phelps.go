package core

import (
	"phelps/internal/cache"
	"phelps/internal/cpu"
	"phelps/internal/emu"
	"phelps/internal/obs"
)

// Config parameterizes the Phelps controller (paper values by default).
type Config struct {
	EpochLen uint64 // retired main-thread instructions per epoch (paper: 4M)

	DBTSize    int
	DBTMaxSize int
	LTSize     int
	// DelinquencyMPKIx2 sets the threshold as mispredictions per epoch:
	// threshold = EpochLen / 2000 reproduces the paper's 0.5 MPKI.
	ThresholdDivisor uint64

	HTCRows int

	PredQueueDepth int // iterations per prediction queue (paper: 32)

	SpecCacheSets int
	SpecCacheWays int

	VisitQueueSize int

	Construction ConstructionConfig
}

// DefaultConfig returns the paper's Phelps parameters.
func DefaultConfig() Config {
	return Config{
		EpochLen:         4_000_000,
		DBTSize:          256,
		DBTMaxSize:       32,
		LTSize:           8,
		ThresholdDivisor: 2000,
		HTCRows:          4,
		PredQueueDepth:   32,
		SpecCacheSets:    16,
		SpecCacheWays:    2,
		VisitQueueSize:   16,
		Construction:     DefaultConstructionConfig(),
	}
}

// HTCRow is one Helper Thread Cache entry: the helper thread(s) for one loop.
type HTCRow struct {
	StartPC   uint64 // trigger PC: target of the outermost loop branch
	Loop      LoopBounds
	InnerLoop LoopBounds
	Nested    bool
	Progs     []*HelperProgram // [ito] or [outer, inner]
	Triggers  uint64

	// pool is the row's recycled activation: the queue sets, routing maps,
	// spec cache, visit queue and engines depend only on the row's shape, so
	// one allocation serves every trigger/terminate cycle of the row.
	pool *activation
}

// Category classifies residual (non-eliminated) mispredictions for Fig. 14.
type Category int

// Fig. 14 misprediction categories (plus the honest catch-alls for helper
// threads that exist but missed).
const (
	CatQueueMiss        Category = iota // covered by an active queue, still wrong/untimely
	CatHTInactive                       // HT exists for the loop but was not active
	CatGathering                        // still gathering delinquency info
	CatNotDelinquent                    // never clears the delinquency threshold
	CatBeingConstructed                 // delinquent, HT being constructed
	CatNotConstructed                   // delinquent, loop not yet chosen
	CatTooBig                           // delinquent, HT too big
	CatNotIterating                     // delinquent, loop not iterating enough per visit
	CatNotInLoop                        // delinquent, branch not within a loop
	CatOtherIneligible                  // outer-dep-inner, complex guards, parameter limits
	NumCategories
)

func (c Category) String() string {
	switch c {
	case CatQueueMiss:
		return "ht wrong or untimely"
	case CatHTInactive:
		return "ht not active"
	case CatGathering:
		return "gathering delinquency"
	case CatNotDelinquent:
		return "not delinquent"
	case CatBeingConstructed:
		return "del. but ht being const."
	case CatNotConstructed:
		return "del. but ht not const."
	case CatTooBig:
		return "del. but ht too big"
	case CatNotIterating:
		return "del. but ot/ito not iterating enough"
	case CatNotInLoop:
		return "del. but not in loop"
	case CatOtherIneligible:
		return "del. but otherwise ineligible"
	}
	return "?"
}

type branchInfo struct {
	everDelinquent bool
	loopKnown      bool
	loop           LoopBounds
	gathering      uint64 // mispredictions attributed while gathering
}

// Stats aggregates Phelps activity.
type Stats struct {
	Triggers        uint64
	Terminations    uint64
	HTRetired       uint64 // helper-thread instructions retired (Fig. 13b)
	HTIterations    uint64
	HTVisits        uint64
	QueueConsumed   uint64
	QueueUntimely   uint64
	SpecCacheHits   uint64
	SpecCacheEvicts uint64
	Categories      [NumCategories]uint64
	RejectedLoops   map[uint64]RejectReason
}

type activation struct {
	row     *HTCRow
	engines []*Engine
	sets    []*QueueSet // parallel to engines
	spec    *SpecCache
	vq      *VisitQueue

	// Fetch-side routing.
	branchQS    map[uint64]*QueueSet // delinquent branch PC -> its set
	loopAdvance map[uint64]*QueueSet // loop branch PC -> set whose spec_head advances
	loopRetire  map[uint64]*QueueSet // loop branch PC -> set whose head advances
}

// Controller is the Phelps microarchitecture controller: it trains the
// delinquency tables at retirement, constructs helper threads across epochs,
// triggers/terminates pre-execution, and routes prediction-queue
// consumption.
type Controller struct {
	cfg     Config
	coreCfg cpu.Config

	mem  *emu.Memory
	hier *cache.Hierarchy
	mt   *cpu.Core

	dbt          *DBT
	trips        *TripStats
	lastBackward LoopBounds

	htc          []*HTCRow
	rejected     map[uint64]RejectReason // loop branch PC -> reason
	constructing *Construction

	branches map[uint64]*branchInfo

	epochInsts uint64
	EpochIndex int

	active        *activation
	suppressLoop  LoopBounds // re-trigger suppression until MT exits this loop
	suppress      bool
	cooldownUntil uint64 // no re-trigger before this cycle (start/stop amortization)

	liveInScratch []uint64 // trigger-time live-in staging (values are copied into the engine)

	now uint64

	Stats Stats
}

// NewController builds a Phelps controller.
func NewController(cfg Config, coreCfg cpu.Config, mem *emu.Memory, hier *cache.Hierarchy) *Controller {
	return &Controller{
		cfg:      cfg,
		coreCfg:  coreCfg,
		mem:      mem,
		hier:     hier,
		dbt:      NewDBT(cfg.DBTSize),
		trips:    NewTripStats(),
		rejected: make(map[uint64]RejectReason),
		branches: make(map[uint64]*branchInfo),
	}
}

// AttachCore links the main-thread core (for squash/partition/live-ins).
func (c *Controller) AttachCore(mt *cpu.Core) { c.mt = mt }

// SetNow updates the controller's view of the clock; call once per cycle
// before the main-thread core cycles.
func (c *Controller) SetNow(now uint64) { c.now = now }

// Active reports whether helper threads are running.
func (c *Controller) Active() bool { return c.active != nil }

// ActiveEngines returns the number of helper-thread engines currently
// running (0 when no activation is live).
func (c *Controller) ActiveEngines() int {
	if c.active == nil {
		return 0
	}
	return len(c.active.engines)
}

// obsEngines is the number of per-engine observability scopes registered up
// front (a nested-loop activation runs two decoupled engines).
const obsEngines = 2

// RegisterObs registers the controller's counters and gauges into an
// observability registry under scope (e.g. "phelps" yields
// phelps.ctrl.triggers, phelps.engine0.queue_deposits, ...). Cumulative
// run-level counters live under <scope>.ctrl; the per-engine scopes are
// live views of the current activation (zero between activations — the
// cumulative totals are folded into ctrl.* at termination).
func (c *Controller) RegisterObs(r *obs.Registry, scope string) {
	s := r.Scope(scope)
	ct := s.Scope("ctrl")
	ct.Counter("triggers", func() uint64 { return c.Stats.Triggers })
	ct.Counter("terminations", func() uint64 { return c.Stats.Terminations })
	ct.Counter("ht_retired", func() uint64 { return c.Stats.HTRetired })
	ct.Counter("ht_iterations", func() uint64 { return c.Stats.HTIterations })
	ct.Counter("ht_visits", func() uint64 { return c.Stats.HTVisits })
	ct.Counter("queue_consumed", func() uint64 { return c.Stats.QueueConsumed })
	ct.Counter("queue_untimely", func() uint64 { return c.Stats.QueueUntimely })
	ct.Counter("spec_cache_hits", func() uint64 { return c.Stats.SpecCacheHits })
	ct.Counter("spec_cache_evicts", func() uint64 { return c.Stats.SpecCacheEvicts })
	ct.Gauge("active_engines", func() float64 { return float64(c.ActiveEngines()) })
	ct.Gauge("epoch", func() float64 { return float64(c.EpochIndex) })
	for i := 0; i < obsEngines; i++ {
		i := i
		eng := func() *Engine {
			if c.active != nil && i < len(c.active.engines) {
				return c.active.engines[i]
			}
			return nil
		}
		es := s.Scopef("engine%d", i)
		counter := func(name string, get func(*EngineStats) uint64) {
			es.Counter(name, func() uint64 {
				if e := eng(); e != nil {
					return get(&e.Stats)
				}
				return 0
			})
		}
		counter("fetched", func(st *EngineStats) uint64 { return st.Fetched })
		counter("retired", func(st *EngineStats) uint64 { return st.Retired })
		counter("queue_deposits", func(st *EngineStats) uint64 { return st.Deposits })
		counter("iterations", func(st *EngineStats) uint64 { return st.Iterations })
		counter("visits", func(st *EngineStats) uint64 { return st.Visits })
		counter("loads_spec", func(st *EngineStats) uint64 { return st.LoadsSpec })
		counter("queue_stalls", func(st *EngineStats) uint64 { return st.QueueStalls })
	}
}

// ResetStats zeroes the controller's counters without touching the HTC,
// DBT, or any in-flight engine (sampled simulation's warmup/measure
// boundary).
func (c *Controller) ResetStats() { c.Stats = Stats{} }

// mispThreshold is the per-epoch delinquency threshold (0.5 MPKI).
func (c *Controller) mispThreshold() uint64 {
	t := c.cfg.EpochLen / c.cfg.ThresholdDivisor
	if t < 4 {
		t = 4
	}
	return t
}

// Predict routes a conditional branch's fetch-time prediction through the
// active prediction queues. handled=false means the core's predictor decides.
func (c *Controller) Predict(d *emu.DynInst) (p cpu.Prediction, handled bool) {
	a := c.active
	if a == nil {
		return cpu.Prediction{}, false
	}
	if qs, ok := a.loopAdvance[d.PC]; ok {
		out, got := qs.Consume(d.PC) // loop branch may itself be queue-covered
		qs.AdvanceSpecHead()
		if got {
			return cpu.Prediction{Taken: out, FromQueue: true}, true
		}
		return cpu.Prediction{}, false
	}
	if qs, ok := a.branchQS[d.PC]; ok {
		if out, got := qs.Consume(d.PC); got {
			return cpu.Prediction{Taken: out, FromQueue: true}, true
		}
	}
	return cpu.Prediction{}, false
}

// OnFetch observes every fetched instruction (HTCB collection).
func (c *Controller) OnFetch(d *emu.DynInst) {
	if c.constructing != nil && c.constructing.Reject() == RejectNone {
		c.constructing.CollectFetch(d.PC, d.Inst)
	}
}

// OnRetire observes every retired instruction: table training, construction,
// epoch turnover, attribution, trigger and termination.
func (c *Controller) OnRetire(d *emu.DynInst, misp bool) {
	pc := d.PC
	op := d.Inst.Op

	if op.IsCondBranch() {
		// Track the most recently retired taken backward branch for loop
		// bound training.
		backward := d.Taken && d.NextPC < pc
		if backward {
			c.lastBackward = LoopBounds{Branch: pc, Target: d.NextPC, Valid: true}
		}
		if pc > pc+uint64(d.Inst.Imm) { // statically backward: trip stats
			c.trips.Record(pc, d.Taken)
		}
		if misp {
			c.dbt.RecordMisp(pc)
			c.attribute(pc)
		}
		c.dbt.TrainLoop(pc, c.lastBackward)

		if a := c.active; a != nil {
			if qs, ok := a.loopRetire[pc]; ok {
				qs.AdvanceHead()
			}
		}
	}

	// Construction training.
	if c.constructing != nil && c.constructing.Reject() == RejectNone {
		c.constructing.ObserveRetire(&RetireEvent{
			PC: pc, Inst: d.Inst, Taken: d.Taken, Addr: d.Addr, Size: d.MemSize,
		})
	}

	// Epoch turnover.
	c.epochInsts++
	if c.epochInsts >= c.cfg.EpochLen {
		c.epochInsts = 0
		c.epochTurnover()
	}

	// Termination: main thread left the pre-executed region.
	if a := c.active; a != nil {
		if !a.row.Loop.Contains(pc) {
			c.terminate()
		}
	} else {
		if c.suppress && !c.suppressLoop.Contains(pc) {
			c.suppress = false
		}
		// Trigger: retired PC matches a helper-thread loop's start. A short
		// cooldown after each termination prevents trigger/terminate
		// flapping when the helper thread finishes a region faster than the
		// main thread traverses it.
		if !c.suppress && c.now >= c.cooldownUntil {
			for _, row := range c.htc {
				if pc == row.StartPC {
					c.trigger(row)
					break
				}
			}
		}
	}
}

// CycleEngines advances all active helper-thread engines by one clock.
func (c *Controller) CycleEngines(now uint64, lanes *cpu.LanePool) {
	a := c.active
	if a == nil {
		return
	}
	for _, e := range a.engines {
		e.Cycle(now, lanes)
	}
	// When the ITO/outer thread finishes the loop, the queues drain: the
	// main thread keeps consuming the already-deposited outcomes and
	// pre-execution terminates once it catches up (or leaves the loop).
	if a.engines[0].Done() {
		drained := true
		for _, qs := range a.sets {
			if qs.SpecHead() < qs.Tail() {
				drained = false
				break
			}
		}
		if drained {
			c.terminate()
		}
	}
}

// epochTurnover runs the end-of-epoch pipeline: finalize any in-flight
// construction, rebuild the LT, pick the next loop to construct, and reset
// the epoch-scoped tables.
func (c *Controller) epochTurnover() {
	c.EpochIndex++

	// Finalize the construction from the last epoch.
	if con := c.constructing; con != nil {
		progs, reject := con.Finalize(c.trips)
		if reject == RejectNone {
			c.install(con, progs)
		} else {
			c.rejected[con.LT.Loop.Branch] = reject
			if c.Stats.RejectedLoops == nil {
				c.Stats.RejectedLoops = make(map[uint64]RejectReason)
			}
			c.Stats.RejectedLoops[con.LT.Loop.Branch] = reject
		}
		c.constructing = nil
	}

	// Identify delinquent loops from the epoch that just ended.
	lt := BuildLT(c.dbt, c.cfg.DBTMaxSize, c.cfg.LTSize, c.mispThreshold())

	// Update branch attribution state.
	for _, e := range c.dbt.TopDelinquent(c.cfg.DBTMaxSize) {
		if e.Misp < c.mispThreshold() {
			continue
		}
		bi := c.branchOf(e.PC)
		bi.everDelinquent = true
		if e.Inner.Valid {
			bi.loopKnown = true
			if e.Outer.Valid {
				bi.loop = e.Outer
			} else {
				bi.loop = e.Inner
			}
		}
	}

	// Pick the most delinquent loop without a helper thread and not already
	// rejected.
	for _, entry := range lt {
		if c.hasRow(entry.Loop) {
			continue
		}
		if _, rej := c.rejected[entry.Loop.Branch]; rej {
			continue
		}
		c.constructing = NewConstruction(c.cfg.Construction, entry)
		break
	}

	c.dbt.Reset()
	c.trips.Reset()
}

func (c *Controller) branchOf(pc uint64) *branchInfo {
	bi := c.branches[pc]
	if bi == nil {
		bi = &branchInfo{}
		c.branches[pc] = bi
	}
	return bi
}

func (c *Controller) hasRow(loop LoopBounds) bool {
	for _, r := range c.htc {
		if r.Loop == loop {
			return true
		}
	}
	return false
}

// install writes finished helper threads into the HTC (Section V-E),
// evicting the least-triggered row if full.
func (c *Controller) install(con *Construction, progs []*HelperProgram) {
	row := &HTCRow{
		StartPC:   con.LT.Loop.Target,
		Loop:      con.LT.Loop,
		InnerLoop: con.LT.InnerLoop,
		Nested:    con.LT.IsNested,
		Progs:     progs,
	}
	if len(c.htc) >= c.cfg.HTCRows {
		victim := 0
		for i, r := range c.htc {
			if r.Triggers < c.htc[victim].Triggers {
				victim = i
			}
		}
		c.htc[victim] = row
		return
	}
	c.htc = append(c.htc, row)
}

// trigger activates a helper thread row (Section V-F): squash, partition,
// live-in injection, main-thread stall until the moves retire.
func (c *Controller) trigger(row *HTCRow) {
	row.Triggers++
	c.Stats.Triggers++
	now := c.now

	c.mt.SquashAll(now)
	full := c.coreCfg.FullLimits()
	plan := cpu.PlanFor(row.Nested)
	c.mt.SetLimits(full.Scale(plan.MTNum, plan.MTDen))

	// Recycle the row's previous activation when one exists: all shape-
	// dependent allocations (queue sets, routing maps, spec cache, visit
	// queue, engine windows) survive intact; only per-trigger values (queue
	// pointers, registers, live-ins, start cycles) are reset.
	a := row.pool
	fresh := a == nil
	if fresh {
		a = &activation{
			row:         row,
			spec:        NewSpecCache(c.cfg.SpecCacheSets, c.cfg.SpecCacheWays),
			branchQS:    make(map[uint64]*QueueSet),
			loopAdvance: make(map[uint64]*QueueSet),
			loopRetire:  make(map[uint64]*QueueSet),
		}
		if row.Nested {
			a.vq = NewVisitQueue(c.cfg.VisitQueueSize)
		}
		row.pool = a
	} else {
		a.spec.ResetAll()
		if a.vq != nil {
			a.vq.Reset()
		}
		for _, qs := range a.sets {
			qs.Reset()
		}
	}

	maxStart := uint64(0)
	for i, prog := range row.Progs {
		var lim cpu.Limits
		switch prog.Kind {
		case InnerOnly:
			lim = full.Scale(plan.ITNum, plan.ITDen)
		case Outer:
			lim = full.Scale(plan.OTNum, plan.OTDen)
		case Inner:
			lim = full.Scale(plan.ITNum, plan.ITDen)
		}
		var qs *QueueSet
		if fresh {
			qs = NewQueueSet(prog.QueuePCs, c.cfg.PredQueueDepth)
			a.sets = append(a.sets, qs)
			for _, pc := range prog.QueuePCs {
				a.branchQS[pc] = qs
			}
			a.loopAdvance[prog.LoopBranch] = qs
			a.loopRetire[prog.LoopBranch] = qs
		} else {
			qs = a.sets[i]
		}

		liveIns := c.liveInScratch[:0]
		for _, r := range prog.LiveInsMT {
			liveIns = append(liveIns, c.mt.ArchReg(r))
		}
		c.liveInScratch = liveIns
		fw := lim.FetchWidth
		if fw < 1 {
			fw = 1
		}
		startAt := now + c.coreCfg.FrontendLatency() + uint64(len(liveIns)/fw) + 2
		if startAt > maxStart {
			maxStart = startAt
		}
		if fresh {
			a.engines = append(a.engines, NewEngine(prog, qs, a.spec, a.vq, c.mem, c.hier, c.coreCfg, lim, liveIns, startAt))
		} else {
			a.engines[i].Reinit(prog, qs, a.spec, a.vq, c.mem, c.hier, c.coreCfg, lim, liveIns, startAt)
		}
	}
	// Outer thread snapshots the inner thread's OT live-ins per visit.
	if row.Nested && len(row.Progs) == 2 {
		a.engines[0].SetVisitRegs(row.Progs[1].LiveInsOT)
	}

	// The main thread resumes fetch only when the last live-in move retires.
	c.mt.BlockFetchUntil(maxStart)
	c.active = a
}

// terminate stops pre-execution (Section V-G): squash, return resources,
// accumulate stats.
func (c *Controller) terminate() {
	a := c.active
	if a == nil {
		return
	}
	c.Stats.Terminations++
	for _, e := range a.engines {
		c.Stats.HTRetired += e.Stats.Retired
		c.Stats.HTIterations += e.Stats.Iterations
		c.Stats.HTVisits += e.Stats.Visits
	}
	for _, qs := range a.sets {
		c.Stats.QueueConsumed += qs.Consumed
		c.Stats.QueueUntimely += qs.Untimely
	}
	c.Stats.SpecCacheHits += a.spec.Hits
	c.Stats.SpecCacheEvicts += a.spec.Evictions

	c.mt.SquashAll(c.now)
	c.mt.SetLimits(c.coreCfg.FullLimits())
	c.suppress = true
	c.suppressLoop = a.row.Loop
	c.cooldownUntil = c.now + 512
	c.active = nil
}

// attribute classifies one retired misprediction (Fig. 14).
func (c *Controller) attribute(pc uint64) {
	if a := c.active; a != nil {
		if _, covered := a.branchQS[pc]; covered {
			c.Stats.Categories[CatQueueMiss]++
			return
		}
		if _, covered := a.loopAdvance[pc]; covered {
			c.Stats.Categories[CatQueueMiss]++
			return
		}
	}
	bi := c.branches[pc]
	if bi == nil || !bi.everDelinquent {
		c.branchOf(pc).gathering++
		c.Stats.Categories[CatGathering]++
		return
	}
	if !bi.loopKnown {
		c.Stats.Categories[CatNotInLoop]++
		return
	}
	if reason, ok := c.rejected[bi.loop.Branch]; ok {
		switch reason {
		case RejectTooBig:
			c.Stats.Categories[CatTooBig]++
		case RejectNotIterating:
			c.Stats.Categories[CatNotIterating]++
		default:
			c.Stats.Categories[CatOtherIneligible]++
		}
		return
	}
	if c.constructing != nil && c.constructing.LT.Loop == bi.loop {
		c.Stats.Categories[CatBeingConstructed]++
		return
	}
	if c.hasRow(bi.loop) {
		c.Stats.Categories[CatHTInactive]++
		return
	}
	c.Stats.Categories[CatNotConstructed]++
}

// FinalizeAttribution reassigns "gathering" counts of branches that never
// became delinquent: they are "not delinquent" — unless the DBT evicted
// them, in which case they were genuinely still gathering (the gcc case).
func (c *Controller) FinalizeAttribution() {
	for pc, bi := range c.branches {
		if bi.everDelinquent || bi.gathering == 0 {
			continue
		}
		if !c.dbt.Victim(pc) {
			c.Stats.Categories[CatGathering] -= bi.gathering
			c.Stats.Categories[CatNotDelinquent] += bi.gathering
		}
	}
}
