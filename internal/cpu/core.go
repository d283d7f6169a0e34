package cpu

import (
	"fmt"

	"phelps/internal/cache"
	"phelps/internal/emu"
	"phelps/internal/isa"
	"phelps/internal/obs"
)

// Prediction is the fetch-time direction prediction for a conditional
// branch, with its provenance (core predictor vs. a Phelps prediction queue).
type Prediction struct {
	Taken     bool
	FromQueue bool
}

// Hooks let the surrounding simulator observe and steer the core. All hooks
// are optional.
type Hooks struct {
	// Predict supplies the direction prediction for a conditional branch at
	// fetch. If nil, branches are predicted not-taken.
	Predict func(d *emu.DynInst) Prediction
	// OnFetch fires for every instruction entering the frontend (used by
	// Phelps to fill the HTCB and advance spec_head at loop-branch fetch).
	OnFetch func(d *emu.DynInst)
	// OnRetire fires at retirement with the misprediction flag (used for
	// DBT/LPT/CDFSM training, trigger/terminate checks, and attribution).
	OnRetire func(d *emu.DynInst, mispredicted bool)
}

// Tracer observes per-instruction pipeline lifecycle events (satisfied by
// obs.KonataWriter). All cycles are absolute; Issue reports the completion
// cycle as well, since execution latency is known at issue in this model.
// Events for a sequence number that was never reported to Fetch (e.g. an
// instruction squashed out of the fetch peek buffer) must be ignored.
type Tracer interface {
	Fetch(cycle uint64, d *emu.DynInst)
	Dispatch(cycle, seq uint64)
	Issue(cycle, doneAt, seq uint64)
	Retire(cycle uint64, d *emu.DynInst, mispredicted, fromQueue bool)
	Squash(cycle, seq uint64)
}

// Stats are the core's performance counters.
type Stats struct {
	Cycles       uint64
	Retired      uint64
	CondBranches uint64
	Mispredicts  uint64 // retired mispredicted conditional branches
	QueuePreds   uint64 // conditional branches predicted from a prediction queue
	QueueMisps   uint64 // ... of which were wrong

	LoadsExecuted  uint64
	StoreForwards  uint64
	FetchStallMisp uint64 // cycles fetch was blocked on an unresolved mispredict
	Squashes       uint64
}

// MPKI returns mispredictions per kilo-instruction.
func (s *Stats) MPKI() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.Mispredicts) * 1000 / float64(s.Retired)
}

// IPC returns instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// robEntry is one in-flight instruction. Entries live in the Core's pooled
// ROB ring and are addressed by dispatch *ordinal* — a monotonically
// increasing counter that serves as stable index + generation fused: slot =
// ordinal & robMask, and an ordinal below robHead denotes a retired (or
// squashed) producer whose slot may since have been recycled. Producers are
// therefore tracked by ordinal, never by pointer, so recycling entries can
// never alias a stale reference.
type robEntry struct {
	d      emu.DynInst
	srcs   [MaxSrcs]uint64 // producer ordinals still in flight at dispatch; NoOrd = none
	issued bool
	doneAt uint64
	misp   bool
	fromQ  bool
}

type frontEntry struct {
	d       emu.DynInst
	readyAt uint64
	misp    bool
	fromQ   bool
}

// Core is the main thread's timing model.
type Core struct {
	cfg   Config
	lim   Limits
	hooks Hooks
	mem   *emu.Memory
	hier  *cache.Hierarchy

	// next writes the next correct-path instruction into its argument (the
	// frontend slot it will occupy) or reports false once the source is
	// exhausted.
	next    func(*emu.DynInst) bool
	peeked  emu.DynInst // valid iff hasPeek (a value, not a pointer: keeps fetch allocation-free)
	hasPeek bool
	// srcExhausted latches once next() returns false. The instruction source
	// (the emulator) is permanently exhausted after its first refusal, so an
	// empty fetch with no replay pending can never act again.
	srcExhausted bool

	replay   []emu.DynInst
	replayAt int

	// Frontend buffer: a power-of-two ring indexed by monotonic counters.
	front     []frontEntry
	frontHead uint64
	frontTail uint64

	// Pooled ROB ring: entries are recycled in place across retire and
	// squash; robHead..robTail are the live dispatch ordinals.
	rob     []robEntry
	robHead uint64
	robTail uint64

	lastWriter [isa.NumRegs]uint64 // producer ordinals; NoOrd = none

	// iq is the wakeup/select index over the ROB ring (issueq.go); its
	// capacity tracks the ring's, and its unissued count is the IQ
	// occupancy.
	iq IssueQueue

	// In-flight store ordinals in program order (a ring: stores dispatch and
	// retire in order).
	storeQ                  []uint64
	storeHead               uint64
	storeTail               uint64
	nLoads, nStores, nDests int

	stallSeq      uint64 // seq of mispredicted branch blocking fetch
	stallActive   bool
	stallClearAt  uint64
	stallClearSet bool

	fetchBlockedUntil uint64
	lastFetchLine     uint64

	archRegs [isa.NumRegs]uint64
	halted   bool

	trace Tracer

	// retireObs, if set, observes every retired instruction after its
	// architectural effects have applied (the differential oracle hook; see
	// internal/check). One nil check per retirement when unset.
	retireObs func(d *emu.DynInst)

	// faults, if set, injects timing-model bugs (see faults.go). Testing
	// instrumentation for the oracle/invariant/watchdog paths; one nil check
	// per retirement, dispatch and issue cycle when unset.
	faults    *FaultInjection
	stickyOrd uint64 // ordinal of the FaultInjection.StickySeq entry once dispatched; NoOrd before

	replayScratch []emu.DynInst // SquashAll's reusable assembly buffer

	Stats Stats
}

// NewCore builds a core over a dynamic-instruction source: next writes the
// next correct-path instruction into the slot it is given (for example
// emu.(*Emulator).StepInto) and returns false once the stream ends. mem
// receives retired stores; hier provides load/store/I-fetch timing.
func NewCore(cfg Config, mem *emu.Memory, hier *cache.Hierarchy, next func(*emu.DynInst) bool, hooks Hooks) *Core {
	c := &Core{
		cfg:           cfg,
		lim:           cfg.FullLimits(),
		hooks:         hooks,
		mem:           mem,
		hier:          hier,
		next:          next,
		lastFetchLine: ^uint64(0),
		front:         make([]frontEntry, 64),
		rob:           make([]robEntry, 256),
		storeQ:        make([]uint64, 64),
		stickyOrd:     NoOrd,
	}
	c.iq.Reset(len(c.rob))
	for i := range c.lastWriter {
		c.lastWriter[i] = NoOrd
	}
	return c
}

// SetTracer attaches a pipeline trace sink (nil detaches).
func (c *Core) SetTracer(t Tracer) { c.trace = t }

// SetRetireObserver attaches a retirement observer (nil detaches). The
// observer fires once per retired instruction, after the instruction's
// architectural effects (register write, store fold) have applied — the
// attachment point of the lockstep differential oracle.
func (c *Core) SetRetireObserver(fn func(d *emu.DynInst)) { c.retireObs = fn }

// RegisterObs registers the core's counters into an observability registry
// under the given scope (e.g. "core.main"). The registry holds views: the
// exported Stats fields remain the source of truth.
func (c *Core) RegisterObs(r *obs.Registry, scope string) {
	s := r.Scope(scope)
	s.Counter("cycles", func() uint64 { return c.Stats.Cycles })
	s.Counter("retired", func() uint64 { return c.Stats.Retired })
	s.Counter("cond_branches", func() uint64 { return c.Stats.CondBranches })
	s.Counter("mispredicts", func() uint64 { return c.Stats.Mispredicts })
	s.Counter("queue_preds", func() uint64 { return c.Stats.QueuePreds })
	s.Counter("queue_misps", func() uint64 { return c.Stats.QueueMisps })
	s.Counter("loads_executed", func() uint64 { return c.Stats.LoadsExecuted })
	s.Counter("store_forwards", func() uint64 { return c.Stats.StoreForwards })
	s.Counter("fetch_stall_misp", func() uint64 { return c.Stats.FetchStallMisp })
	s.Counter("squashes", func() uint64 { return c.Stats.Squashes })
}

// SetLimits applies (or removes) a resource partition.
func (c *Core) SetLimits(l Limits) { c.lim = l }

// ResetStats zeroes the performance counters without disturbing
// microarchitectural state. Sampled simulation calls it at the
// warmup/measure boundary so the measured interval starts from clean
// counters but warm predictors, caches, and pipeline.
func (c *Core) ResetStats() { c.Stats = Stats{} }

// Limits returns the current partition limits.
func (c *Core) Limits() Limits { return c.lim }

// ArchReg returns the retire-time architectural value of a register (used to
// source helper-thread live-ins at trigger).
func (c *Core) ArchReg(r isa.Reg) uint64 { return c.archRegs[r] }

// Halted reports whether the HALT instruction has retired.
func (c *Core) Halted() bool { return c.halted }

// Drained reports whether no instructions remain anywhere in the machine.
func (c *Core) Drained() bool {
	return c.robTail == c.robHead && c.frontTail == c.frontHead &&
		!c.hasPeek && c.replayAt >= len(c.replay)
}

// BlockFetchUntil stalls fetch until the given cycle (used to model the
// main-thread stall while helper-thread live-in moves retire, Section V-F).
func (c *Core) BlockFetchUntil(cycle uint64) {
	if cycle > c.fetchBlockedUntil {
		c.fetchBlockedUntil = cycle
	}
}

func (c *Core) entry(ord uint64) *robEntry { return &c.rob[ord&uint64(len(c.rob)-1)] }

// nextDynInto fills dst with the next correct-path instruction: the peeked
// instruction first, then replayed (post-squash) instructions, then fresh
// emulation written straight into dst.
func (c *Core) nextDynInto(dst *emu.DynInst) bool {
	if c.hasPeek {
		*dst = c.peeked
		c.hasPeek = false
		return true
	}
	if c.replayAt < len(c.replay) {
		*dst = c.replay[c.replayAt]
		c.replayAt++
		if c.replayAt == len(c.replay) {
			c.replay = c.replay[:0]
			c.replayAt = 0
		}
		return true
	}
	if !c.next(dst) {
		c.srcExhausted = true
		return false
	}
	return true
}

func (c *Core) unfetch(d *emu.DynInst) {
	c.peeked = *d
	c.hasPeek = true
}

// Cycle advances the core by one clock at time now, drawing issue slots from
// the shared pool.
func (c *Core) Cycle(now uint64, lanes *LanePool) {
	c.Stats.Cycles++
	c.retire(now)
	c.issue(now, lanes)
	c.dispatch(now)
	c.fetch(now)
}

func (c *Core) retire(now uint64) {
	for n := 0; n < c.cfg.RetireWidth && c.robHead < c.robTail; n++ {
		ord := c.robHead
		e := c.entry(ord)
		if !e.issued || e.doneAt > now {
			break
		}
		// Advancing robHead is what marks the entry retired: consumers see
		// any ordinal below robHead as ready, and the slot becomes
		// recyclable once the ring wraps.
		c.robHead++
		d := &e.d
		op := d.Inst.Op
		misp, fromQ := e.misp, e.fromQ
		if c.faults != nil && c.faults.PanicAtSeq != 0 && d.Seq == c.faults.PanicAtSeq {
			panic(fmt.Sprintf("cpu: injected panic at retirement of seq %d (FaultInjection.PanicAtSeq)", d.Seq))
		}
		if c.faults != nil && c.faults.SkipRetireSeq != 0 && d.Seq == c.faults.SkipRetireSeq {
			c.skipRetire(e, ord, d)
			continue
		}
		if op.WritesRd() && d.Inst.Rd != isa.X0 {
			c.archRegs[d.Inst.Rd] = d.RdVal
			if c.faults != nil && c.faults.CorruptRdSeq != 0 && d.Seq == c.faults.CorruptRdSeq {
				c.archRegs[d.Inst.Rd] ^= faultCorruptMask
			}
		}
		if op.IsStore() {
			if err := c.mem.RetireStore(d.Seq, d.Addr, d.MemSize, d.StoreVal); err != nil {
				panic(err)
			}
			c.hier.Store(d.Addr, now)
			c.storeHead++
			c.nStores--
		}
		if op.IsLoad() {
			c.nLoads--
		}
		// Only registers that consumed a physical destination at dispatch
		// release one here; dispatch excludes x0 (JAL/JALR with rd=x0 write
		// nothing), so the release must too or the free-list count leaks
		// negative on every J/Ret.
		if op.WritesRd() && d.Inst.Rd != isa.X0 {
			if c.faults == nil || c.faults.LeakPRFSeq == 0 || d.Seq != c.faults.LeakPRFSeq {
				c.nDests--
			}
		}
		if op.IsCondBranch() {
			c.Stats.CondBranches++
			if misp {
				c.Stats.Mispredicts++
			}
			if fromQ {
				c.Stats.QueuePreds++
				if misp {
					c.Stats.QueueMisps++
				}
			}
		}
		if op == isa.HALT {
			c.halted = true
		}
		c.Stats.Retired++
		// Drop writer mapping if this entry is still the last writer (a
		// retired producer is always ready to consumers).
		if op.WritesRd() && c.lastWriter[d.Inst.Rd] == ord {
			c.lastWriter[d.Inst.Rd] = NoOrd
		}
		if c.hooks.OnRetire != nil {
			c.hooks.OnRetire(d, misp)
		}
		if c.trace != nil {
			c.trace.Retire(now, d, misp, fromQ)
		}
		if c.retireObs != nil {
			c.retireObs(d)
		}
	}
}

// skipRetire pops a ROB entry with full resource bookkeeping but none of its
// architectural effects, stats hooks, or observer call — the injected
// "dropped retirement" timing bug (FaultInjection.SkipRetireSeq). Invalid for
// stores (skipping RetireStore desynchronizes the pending-store ring) and
// HALT; see faults.go.
func (c *Core) skipRetire(e *robEntry, ord uint64, d *emu.DynInst) {
	op := d.Inst.Op
	if op.IsStore() {
		panic("cpu: SkipRetireSeq injected on a store instruction")
	}
	if op.IsLoad() {
		c.nLoads--
	}
	if op.WritesRd() && d.Inst.Rd != isa.X0 {
		c.nDests--
	}
	c.Stats.Retired++
	if op.WritesRd() && c.lastWriter[d.Inst.Rd] == ord {
		c.lastWriter[d.Inst.Rd] = NoOrd
	}
}

func (c *Core) issue(now uint64, lanes *LanePool) {
	sticky := c.faults != nil && c.faults.StickySeq != 0
	c.iq.Select(c.robHead, c.robTail, now, c.cfg.IQScanLimit)
	for ord, ok := c.iq.Next(); ok; ord, ok = c.iq.Next() {
		e := c.entry(ord)
		if sticky && ord == c.stickyOrd {
			continue
		}
		op := e.d.Inst.Op
		switch {
		case op.IsLoad():
			if !c.tryIssueLoad(e, now, lanes) {
				continue
			}
		case op.IsStore():
			if !lanes.TakeMem() {
				continue
			}
			e.issued = true
			e.doneAt = now + 1
		case op.IsComplex():
			if !lanes.TakeComplex() {
				continue
			}
			e.issued = true
			if op == isa.MUL {
				e.doneAt = now + c.cfg.MulLatency
			} else {
				e.doneAt = now + c.cfg.DivLatency
			}
		default:
			if !lanes.TakeSimple() {
				continue
			}
			e.issued = true
			e.doneAt = now + 1
		}
		c.iq.Issue(ord, e.doneAt)
		if c.trace != nil {
			c.trace.Issue(now, e.doneAt, e.d.Seq)
		}
		if c.stallActive && e.d.Seq == c.stallSeq {
			c.stallClearAt = e.doneAt
			c.stallClearSet = true
		}
	}
}

// tryIssueLoad handles memory disambiguation: the load waits for the
// youngest older overlapping store, forwarding from it once the store has
// executed; otherwise it accesses the cache hierarchy.
func (c *Core) tryIssueLoad(e *robEntry, now uint64, lanes *LanePool) bool {
	var dep *robEntry
	mask := uint64(len(c.storeQ) - 1)
	for i := c.storeTail; i > c.storeHead; i-- {
		s := c.entry(c.storeQ[(i-1)&mask])
		if s.d.Seq > e.d.Seq {
			continue
		}
		if overlaps(s.d.Addr, s.d.MemSize, e.d.Addr, e.d.MemSize) {
			dep = s
			break
		}
	}
	if dep != nil && (!dep.issued || dep.doneAt > now) {
		return false // wait for the producing store
	}
	if !lanes.TakeMem() {
		return false
	}
	e.issued = true
	if dep != nil {
		e.doneAt = now + c.cfg.FwdLatency
		c.Stats.StoreForwards++
	} else {
		e.doneAt = c.hier.Load(e.d.PC, e.d.Addr, now)
	}
	c.Stats.LoadsExecuted++
	return true
}

func overlaps(a1 uint64, s1 int, a2 uint64, s2 int) bool {
	return a1 < a2+uint64(s2) && a2 < a1+uint64(s1)
}

// growROB doubles the ROB ring, re-laying entries out at their ordinals'
// new slots.
func (c *Core) growROB() {
	next := make([]robEntry, len(c.rob)*2)
	mask := uint64(len(c.rob) - 1)
	nextMask := uint64(len(next) - 1)
	for ord := c.robHead; ord < c.robTail; ord++ {
		next[ord&nextMask] = c.rob[ord&mask]
	}
	c.rob = next
	c.iq.Grow(c.robHead, c.robTail)
}

func (c *Core) growStoreQ() {
	next := make([]uint64, len(c.storeQ)*2)
	mask := uint64(len(c.storeQ) - 1)
	nextMask := uint64(len(next) - 1)
	for i := c.storeHead; i < c.storeTail; i++ {
		next[i&nextMask] = c.storeQ[i&mask]
	}
	c.storeQ = next
}

func (c *Core) dispatch(now uint64) {
	for c.frontTail > c.frontHead {
		fe := &c.front[c.frontHead&uint64(len(c.front)-1)]
		if fe.readyAt > now {
			break
		}
		op := fe.d.Inst.Op
		if c.robTail-c.robHead >= uint64(c.lim.ROB) || c.iq.Len() >= c.lim.IQ {
			break
		}
		if op.IsLoad() && c.nLoads >= c.lim.LQ {
			break
		}
		if op.IsStore() && c.nStores >= c.lim.SQ {
			break
		}
		if op.WritesRd() && c.nDests >= c.lim.PRF-isa.NumRegs {
			break
		}
		if c.robTail-c.robHead == uint64(len(c.rob)) {
			c.growROB()
		}
		ord := c.robTail
		e := c.entry(ord)
		// Field by field: a composite literal would build the entry in a
		// temporary and copy it twice.
		e.d = fe.d
		e.srcs = [MaxSrcs]uint64{NoOrd, NoOrd, NoOrd}
		e.issued, e.doneAt, e.misp, e.fromQ = false, 0, fe.misp, fe.fromQ
		d := &e.d
		srcs, n := d.Inst.SrcRegs()
		k := 0
		for i := 0; i < n; i++ {
			if srcs[i] == isa.X0 {
				continue
			}
			if w := c.lastWriter[srcs[i]]; w != NoOrd && w >= c.robHead {
				e.srcs[k] = w
				k++
			}
		}
		c.iq.Insert(ord, e.srcs)
		if c.faults != nil && d.Seq == c.faults.StickySeq {
			c.stickyOrd = ord
		}
		if op.WritesRd() && d.Inst.Rd != isa.X0 {
			c.lastWriter[d.Inst.Rd] = ord
			c.nDests++
		}
		if op.IsLoad() {
			c.nLoads++
		}
		if op.IsStore() {
			c.nStores++
			if c.storeTail-c.storeHead == uint64(len(c.storeQ)) {
				c.growStoreQ()
			}
			c.storeQ[c.storeTail&uint64(len(c.storeQ)-1)] = ord
			c.storeTail++
		}
		c.robTail = ord + 1
		if c.trace != nil {
			c.trace.Dispatch(now, d.Seq)
		}
		c.frontHead++
	}
}

func (c *Core) growFront() {
	next := make([]frontEntry, len(c.front)*2)
	mask := uint64(len(c.front) - 1)
	nextMask := uint64(len(next) - 1)
	for i := c.frontHead; i < c.frontTail; i++ {
		next[i&nextMask] = c.front[i&mask]
	}
	c.front = next
}

func (c *Core) fetch(now uint64) {
	if c.stallActive {
		if c.stallClearSet && c.stallClearAt <= now {
			c.stallActive = false
			c.stallClearSet = false
		} else {
			c.Stats.FetchStallMisp++
			return
		}
	}
	if now < c.fetchBlockedUntil {
		return
	}
	// Frontend buffer backpressure: bounded by width * frontend depth.
	maxFront := uint64(c.lim.FetchWidth) * c.cfg.FrontendLatency()
	fl := c.cfg.FrontendLatency()
	for n := 0; n < c.lim.FetchWidth; n++ {
		if c.frontTail-c.frontHead >= maxFront {
			return
		}
		// The instruction is written straight into the slot at frontTail;
		// the slot joins the frontend only when frontTail advances below.
		if c.frontTail-c.frontHead == uint64(len(c.front)) {
			c.growFront()
		}
		fe := &c.front[c.frontTail&uint64(len(c.front)-1)]
		d := &fe.d
		if !c.nextDynInto(d) {
			return
		}
		// Instruction cache: crossing into a new line may block fetch.
		line := d.PC / cache.LineBytes
		if line != c.lastFetchLine {
			r := c.hier.FetchInst(d.PC, now)
			c.lastFetchLine = line
			if r > now {
				c.unfetch(d)
				c.lastFetchLine = ^uint64(0)
				c.fetchBlockedUntil = r
				return
			}
		}
		if c.hooks.OnFetch != nil {
			c.hooks.OnFetch(d)
		}
		fe.readyAt, fe.misp, fe.fromQ = now+fl, false, false
		endGroup := false
		if d.Inst.Op.IsCondBranch() {
			pred := Prediction{Taken: false}
			if c.hooks.Predict != nil {
				pred = c.hooks.Predict(d)
			}
			fe.misp = pred.Taken != d.Taken
			fe.fromQ = pred.FromQueue
			if fe.misp {
				// Fetch stalls after a mispredicted branch until it
				// resolves in the backend.
				c.stallActive = true
				c.stallSeq = d.Seq
				c.stallClearSet = false
				endGroup = true
			} else if pred.Taken {
				endGroup = true // one taken branch per fetch cycle
			}
		} else if d.Inst.Op.IsJump() {
			endGroup = true // taken-redirect ends the fetch group
		}
		c.frontTail++
		if c.trace != nil {
			c.trace.Fetch(now, d)
		}
		if endGroup {
			return
		}
	}
}

// SquashAll flushes every in-flight instruction back into the replay queue
// (program order preserved) and resets pipeline state. Used at helper-thread
// trigger/termination (Section V-F/V-G). The squashed instructions will be
// refetched, paying the frontend refill. The assembly buffer is recycled
// across squashes (they are frequent under Phelps configurations).
func (c *Core) SquashAll(now uint64) {
	c.Stats.Squashes++
	buf := c.replayScratch[:0]
	robMask := uint64(len(c.rob) - 1)
	for ord := c.robHead; ord < c.robTail; ord++ {
		buf = append(buf, c.rob[ord&robMask].d)
	}
	frontMask := uint64(len(c.front) - 1)
	for i := c.frontHead; i < c.frontTail; i++ {
		buf = append(buf, c.front[i&frontMask].d)
	}
	if c.trace != nil {
		// The peeked instruction was never reported fetched; the tracer
		// ignores its unknown sequence number on re-fetch.
		for i := range buf {
			c.trace.Squash(now, buf[i].Seq)
		}
	}
	if c.hasPeek {
		buf = append(buf, c.peeked)
		c.hasPeek = false
	}
	// Prepend before any not-yet-replayed instructions, then swap buffers so
	// the old replay backing array becomes the next squash's scratch.
	buf = append(buf, c.replay[c.replayAt:]...)
	c.replayScratch = c.replay[:0]
	c.replay = buf
	c.replayAt = 0

	c.frontHead = c.frontTail
	c.robHead = c.robTail
	c.iq.Clear()
	c.storeHead = c.storeTail
	for i := range c.lastWriter {
		c.lastWriter[i] = NoOrd
	}
	c.nLoads, c.nStores, c.nDests = 0, 0, 0
	c.stallActive = false
	c.stallClearSet = false
	c.lastFetchLine = ^uint64(0)
	c.fetchBlockedUntil = now + c.cfg.FrontendLatency()
}
