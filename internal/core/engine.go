package core

import (
	"phelps/internal/cache"
	"phelps/internal/cpu"
	"phelps/internal/emu"
	"phelps/internal/isa"
)

// This file implements helper thread execution: a small out-of-order engine
// per active helper thread, running the straight-line HelperProgram whose
// only control flow is the loop branch (fetch wraps there, assuming taken).
// The engine draws issue slots from the shared lane pool, shares the cache
// hierarchy with the main thread, commits stores to the private speculative
// store cache, and deposits pre-executed branch outcomes into its prediction
// queue set.

// Visit is one inner-loop visit queued by the outer thread (Section V-F).
type Visit struct {
	LiveIns []uint64 // values for the inner thread's LiveInsOT registers
}

// VisitQueue is the 16-entry FIFO between the outer and inner threads. It is
// a fixed ring whose slots keep their live-in backing arrays across reuse, so
// steady-state push/pop traffic allocates nothing.
type VisitQueue struct {
	slots []Visit
	head  uint64
	tail  uint64

	Pushed     uint64
	Popped     uint64
	FullStalls uint64
}

// NewVisitQueue returns a queue with the paper's capacity by default (16).
func NewVisitQueue(capacity int) *VisitQueue {
	return &VisitQueue{slots: make([]Visit, capacity)}
}

// Full reports whether the queue has no free entry.
func (v *VisitQueue) Full() bool { return v.tail-v.head >= uint64(len(v.slots)) }

// Push copies a visit into the next slot; returns false (and counts a stall)
// when full. The pushed LiveIns are copied, so callers may reuse their slice.
func (v *VisitQueue) Push(visit Visit) bool {
	if v.Full() {
		v.FullStalls++
		return false
	}
	s := &v.slots[v.tail%uint64(len(v.slots))]
	s.LiveIns = append(s.LiveIns[:0], visit.LiveIns...)
	v.tail++
	v.Pushed++
	return true
}

// Pop removes the oldest visit. The returned LiveIns alias the slot's backing
// array and are valid until the slot is reused by a later Push.
func (v *VisitQueue) Pop() (Visit, bool) {
	if v.head == v.tail {
		return Visit{}, false
	}
	s := v.slots[v.head%uint64(len(v.slots))]
	v.head++
	v.Popped++
	return s, true
}

// Len returns the current occupancy.
func (v *VisitQueue) Len() int { return int(v.tail - v.head) }

// Reset empties the queue and zeroes its counters for activation reuse,
// keeping the slot backing arrays.
func (v *VisitQueue) Reset() {
	v.head, v.tail = 0, 0
	v.Pushed, v.Popped, v.FullStalls = 0, 0, 0
}

// predVal is a 2-bit predicate register value (Section V-H): msb = enabled
// (the producer was itself predicated-true), lsb = taken/not-taken outcome.
type predVal struct {
	enabled bool
	outcome bool
}

// enables evaluates the consumer condition: ((msb == 1) && (lsb ==
// enabling_direction_of_consumer)).
func (p predVal) enables(dir bool) bool { return p.enabled && p.outcome == dir }

// noHTOrd marks an absent producer ordinal (see Engine.window).
const noHTOrd = cpu.NoOrd

// htEntry is one in-flight helper-thread instruction. Entries live in the
// engine's pooled window ring and are addressed by fetch ordinal — slot =
// ordinal & mask, and an ordinal below Engine.head denotes a retired (or
// squashed) producer. Producers are tracked by ordinal, never by pointer, so
// recycling slots can never alias a stale reference; the ring is sized ≥
// 2×ROB+2 so a retired producer's result/pred stay readable for as long as
// any in-flight consumer can hold its ordinal.
type htEntry struct {
	hi      *HTInst
	progIdx int       // index in prog.Insts (for fetch rewind on violation)
	srcs    [2]uint64 // producer ordinals still in flight at dispatch; noHTOrd = none
	srcVals [2]uint64 // captured at dispatch when no in-flight producer
	nsrc    int
	predSrc uint64  // in-flight predicate producer ordinal, noHTOrd if resolved
	predVal predVal // captured when predSrc is resolved

	issued bool
	doneAt uint64

	result  uint64
	pred    predVal // produced predicate (PPRODUCE)
	enabled bool    // store/pproduce predication outcome
	outcome bool    // pproduce / loop branch direction

	addr     uint64
	memSize  int
	storeVal uint64
}

// EngineStats counts helper-thread activity.
type EngineStats struct {
	Fetched     uint64
	Retired     uint64
	Deposits    uint64
	Iterations  uint64
	Visits      uint64
	LoadsSpec   uint64 // loads hitting the speculative store cache
	QueueStalls uint64 // cycles stalled on a full prediction queue
	VisitWaits  uint64 // cycles the inner thread waited for a visit
	Violations  uint64 // load violations (speculative load before conflicting store)
}

// DepositSink receives pre-executed branch outcomes from an engine. The
// Phelps QueueSet implements it with iteration-lockstep queues; the Branch
// Runahead baseline substitutes per-branch tagged FIFOs with speculative
// triggering semantics.
type DepositSink interface {
	Full() bool
	Deposit(queueID int, outcome bool)
	AdvanceTail()
}

// Engine executes one helper thread.
type Engine struct {
	prog *HelperProgram
	qs   DepositSink
	spec *SpecCache
	vq   *VisitQueue // Outer: pushes; Inner: pops; nil for InnerOnly
	mem  *emu.Memory
	hier *cache.Hierarchy

	coreCfg cpu.Config
	lim     cpu.Limits

	regs  [isa.NumRegs]uint64
	preds [isa.NumPredRegs]predVal

	// Pooled window ring: head..tail are the live fetch ordinals; entries are
	// recycled in place across retire and squash.
	window         []htEntry
	head           uint64
	tail           uint64
	fetchIdx       int
	lastWriter     [isa.NumRegs]uint64     // producer ordinals; noHTOrd = none
	lastPredWriter [isa.NumPredRegs]uint64 // producer ordinals; noHTOrd = none
	nDests, nLoads int

	// iq is the wakeup/select index over the window (cpu.IssueQueue, the
	// main core's issue index).
	iq cpu.IssueQueue
	// In-flight store ordinals in program order: a ring, since stores enter
	// at fetch and leave at retire or by a squash of the youngest entries.
	stores               []uint64
	storeHead, storeTail uint64

	fetchBlockedUntil uint64
	visitActive       bool // inner thread: currently processing a visit
	pendingVisit      bool // outer thread: visit allocated, values pending
	done              bool
	visitRegs         []isa.Reg // outer thread: registers snapshotted per visit
	visitScratch      []uint64  // reusable visit live-in assembly buffer

	Stats EngineStats
}

// windowRingSize returns the window ring size for a ROB quota: the next power
// of two ≥ 2×rob+2 (the extra ROB of slack keeps retired producers' results
// readable by ordinal until every possible consumer has issued).
func windowRingSize(rob int) int {
	need := 2*rob + 2
	n := 1
	for n < need {
		n <<= 1
	}
	return n
}

// NewEngine builds an engine for a helper program. liveInsMT are the
// main-thread live-in values (parallel to prog.LiveInsMT). startAt models
// the live-in move injection delay; fetch begins then.
func NewEngine(prog *HelperProgram, qs DepositSink, spec *SpecCache, vq *VisitQueue,
	mem *emu.Memory, hier *cache.Hierarchy, coreCfg cpu.Config, lim cpu.Limits,
	liveInsMT []uint64, startAt uint64) *Engine {
	e := &Engine{}
	e.Reinit(prog, qs, spec, vq, mem, hier, coreCfg, lim, liveInsMT, startAt)
	return e
}

// Reinit resets an engine to the state NewEngine would build, reusing the
// window ring when it is large enough. Activation pooling: helper threads
// trigger and terminate constantly under Phelps configurations, and the
// window ring is by far the largest per-trigger allocation.
func (e *Engine) Reinit(prog *HelperProgram, qs DepositSink, spec *SpecCache, vq *VisitQueue,
	mem *emu.Memory, hier *cache.Hierarchy, coreCfg cpu.Config, lim cpu.Limits,
	liveInsMT []uint64, startAt uint64) {
	if need := windowRingSize(lim.ROB); len(e.window) < need {
		e.window = make([]htEntry, need)
		e.stores = make([]uint64, need)
	}
	e.iq.Reset(lim.ROB)
	e.storeHead, e.storeTail = 0, 0
	e.prog, e.qs, e.spec, e.vq, e.mem, e.hier = prog, qs, spec, vq, mem, hier
	e.coreCfg, e.lim = coreCfg, lim
	e.regs = [isa.NumRegs]uint64{}
	for i, r := range prog.LiveInsMT {
		e.regs[r] = liveInsMT[i]
	}
	e.preds = [isa.NumPredRegs]predVal{}
	e.preds[isa.Pred0] = predVal{enabled: true, outcome: true}
	e.head, e.tail = 0, 0
	e.fetchIdx = 0
	for i := range e.lastWriter {
		e.lastWriter[i] = noHTOrd
	}
	for i := range e.lastPredWriter {
		e.lastPredWriter[i] = noHTOrd
	}
	e.nDests, e.nLoads = 0, 0
	e.fetchBlockedUntil = startAt
	e.visitActive = prog.Kind != Inner // the inner thread waits for its first visit
	e.pendingVisit = false
	e.done = false
	e.visitRegs = nil
	e.Stats = EngineStats{}
}

func (e *Engine) entry(ord uint64) *htEntry { return &e.window[ord&uint64(len(e.window)-1)] }

// Done reports whether the thread's loop branch resolved not-taken
// (inner-thread-only and outer threads; the inner thread is never Done on
// its own — it follows the outer thread's visits).
func (e *Engine) Done() bool { return e.done }

// Cycle advances the engine one clock.
func (e *Engine) Cycle(now uint64, lanes *cpu.LanePool) {
	if e.done {
		return
	}
	e.retire(now)
	e.issue(now, lanes)
	e.fetch(now)
}

func (e *Engine) retire(now uint64) {
	width := e.lim.FetchWidth
	if width < 1 {
		width = 1
	}
	for n := 0; n < width && e.head < e.tail; n++ {
		ord := e.head
		ent := e.entry(ord)
		if !ent.issued || ent.doneAt > now {
			break
		}
		hi := ent.hi
		// Loop branch: may need to advance tail (stall when queue full).
		if hi.IsLoopBranch {
			if e.qs != nil && e.qs.Full() {
				e.Stats.QueueStalls++
				return
			}
		}
		// Header branch retire (outer thread): allocate a Visit Queue entry
		// on not-taken. The entry's live-in values are written by the rest
		// of the iteration's instructions as they retire, so the visit is
		// published at the iteration's loop-branch retire (Section V-F).
		if hi.IsHeader && ent.enabled && !ent.outcome {
			if e.vq != nil && e.vq.Full() {
				return // stall retire until the inner thread drains a visit
			}
			e.pendingVisit = true
		}

		// Advancing head is what marks the entry retired: consumers see any
		// ordinal below head as ready, and the slot becomes recyclable once
		// the ring wraps.
		e.head++
		e.Stats.Retired++

		op := hi.Inst.Op
		switch {
		case op == isa.PPRODUCE:
			e.preds[hi.Inst.PredDst] = ent.pred
			if hi.QueueID >= 0 && e.qs != nil {
				e.qs.Deposit(hi.QueueID, ent.outcome)
				e.Stats.Deposits++
			}
		case op.IsStore():
			e.storeHead++
			if ent.enabled {
				e.spec.WriteStore(e.mem, ent.addr, ent.memSize, ent.storeVal)
			}
		case op.IsLoad():
			e.nLoads--
		}
		if op.WritesRd() && hi.Inst.Rd != isa.X0 {
			e.regs[hi.Inst.Rd] = ent.result
			e.nDests--
			if e.lastWriter[hi.Inst.Rd] == ord {
				e.lastWriter[hi.Inst.Rd] = noHTOrd
			}
		}
		if op == isa.PPRODUCE && e.lastPredWriter[hi.Inst.PredDst] == ord {
			e.lastPredWriter[hi.Inst.PredDst] = noHTOrd
		}

		if hi.IsLoopBranch {
			e.Stats.Iterations++
			// Publish the visit allocated by this iteration's header: all of
			// its live-in producers have now retired.
			if e.pendingVisit && e.vq != nil {
				vals := e.visitScratch[:0]
				for _, r := range e.ownedVisitRegs() {
					vals = append(vals, e.regs[r])
				}
				e.visitScratch = vals
				e.vq.Push(Visit{LiveIns: vals})
				e.pendingVisit = false
			}
			if hi.QueueID >= 0 && e.qs != nil {
				e.qs.Deposit(hi.QueueID, ent.outcome)
				e.Stats.Deposits++
			}
			if e.qs != nil {
				e.qs.AdvanceTail()
			}
			if !ent.outcome {
				// Loop exit resolved: drop over-fetched younger work.
				e.squashYounger(now)
				switch e.prog.Kind {
				case InnerOnly, Outer:
					e.done = true
					return
				case Inner:
					e.visitActive = false // fetch will pop the next visit
				}
			}
		}
	}
}

// ownedVisitRegs returns the registers whose values the outer thread places
// in the Visit Queue (the inner thread's LiveInsOT set). The controller
// links the two programs via SetVisitRegs.
func (e *Engine) ownedVisitRegs() []isa.Reg { return e.visitRegs }

// SetVisitRegs configures which registers the outer thread snapshots into
// each Visit Queue entry.
func (e *Engine) SetVisitRegs(regs []isa.Reg) { e.visitRegs = regs }

func (e *Engine) squashYounger(now uint64) {
	e.squashFrom(e.head, 0, now)
	// Loop-exit and visit-boundary squashes refill from the short dedicated
	// HTC fetch path (Section V-E), not the main frontend.
	e.fetchBlockedUntil = now + htcRefill
}

// htcRefill is the helper thread's fetch refill latency: HTC fetch is purely
// sequential from a small dedicated structure.
const htcRefill = 3

func (e *Engine) issue(now uint64, lanes *cpu.LanePool) {
	e.iq.Select(e.head, e.tail, now, e.coreCfg.IQScanLimit)
	for ord, ok := e.iq.Next(); ok; ord, ok = e.iq.Next() {
		ent := e.entry(ord)
		op := ent.hi.Inst.Op
		switch {
		case op.IsLoad():
			if !e.tryIssueLoad(ord, ent, now, lanes) {
				continue
			}
		case op.IsStore():
			if !lanes.TakeMem() {
				continue
			}
			// A load violation squashes younger entries here, dropping
			// them from the rest of this cycle's selection too.
			e.execStore(ord, ent, now)
		case op.IsComplex():
			if !lanes.TakeComplex() {
				continue
			}
			e.execALU(ent, now)
			if op == isa.MUL {
				ent.doneAt = now + e.coreCfg.MulLatency
			} else {
				ent.doneAt = now + e.coreCfg.DivLatency
			}
		default:
			if !lanes.TakeSimple() {
				continue
			}
			e.execALU(ent, now)
			ent.doneAt = now + 1
		}
		ent.issued = true
		e.iq.Issue(ord, ent.doneAt)
	}
}

func (e *Engine) srcVal(ent *htEntry, i int) uint64 {
	if ord := ent.srcs[i]; ord != noHTOrd {
		return e.entry(ord).result
	}
	return ent.srcVals[i]
}

func (e *Engine) predSrcVal(ent *htEntry) predVal {
	if ord := ent.predSrc; ord != noHTOrd {
		return e.entry(ord).pred
	}
	return ent.predVal
}

// evalEnabled computes the predication outcome for a store or predicate
// producer.
func (e *Engine) evalEnabled(ent *htEntry) bool {
	if ent.hi.Inst.PredSrc == isa.Pred0 {
		return true
	}
	return e.predSrcVal(ent).enables(ent.hi.Inst.PredDir)
}

func (e *Engine) execALU(ent *htEntry, now uint64) {
	inst := &ent.hi.Inst
	a := e.srcVal(ent, 0)
	b := uint64(0)
	if ent.nsrc > 1 {
		b = e.srcVal(ent, 1)
	}
	switch {
	case inst.Op == isa.PPRODUCE:
		ent.outcome = isa.BranchTaken(inst.CmpOp, a, b)
		ent.enabled = e.evalEnabled(ent)
		ent.pred = predVal{enabled: ent.enabled, outcome: ent.outcome}
	case inst.Op.IsCondBranch(): // the loop branch
		ent.outcome = isa.BranchTaken(inst.Op, a, b)
		ent.enabled = true
	case inst.Op == isa.NOP || inst.Op == isa.HALT:
		// nothing
	default:
		ent.result = isa.EvalALU(inst.Op, a, b, inst.Imm)
	}
	_ = now
}

func (e *Engine) execStore(ord uint64, ent *htEntry, now uint64) {
	inst := &ent.hi.Inst
	ent.addr = e.srcVal(ent, 0) + uint64(inst.Imm)
	ent.memSize = inst.Op.MemBytes()
	ent.storeVal = e.srcVal(ent, 1)
	ent.enabled = e.evalEnabled(ent)
	ent.doneAt = now + 1
	if ent.enabled {
		e.checkLoadViolation(ord, ent, now)
	}
}

// checkLoadViolation squashes and replays any younger load that issued
// before this store resolved and overlaps its address.
func (e *Engine) checkLoadViolation(stOrd uint64, st *htEntry, now uint64) {
	for j := stOrd + 1; j < e.tail; j++ {
		ent := e.entry(j)
		if !ent.hi.Inst.Op.IsLoad() || !ent.issued {
			continue
		}
		if st.addr < ent.addr+uint64(ent.memSize) && ent.addr < st.addr+uint64(st.memSize) {
			e.Stats.Violations++
			e.squashFrom(j, ent.progIdx, now)
			return
		}
	}
}

// squashFrom drops window ordinals [ord:), rewinds fetch to progIdx, and
// rebuilds the rename state from the surviving entries.
func (e *Engine) squashFrom(ord uint64, progIdx int, now uint64) {
	for j := ord; j < e.tail; j++ {
		ent := e.entry(j)
		op := ent.hi.Inst.Op
		if op.IsLoad() {
			e.nLoads--
		}
		if op.WritesRd() && ent.hi.Inst.Rd != isa.X0 {
			e.nDests--
		}
	}
	for e.storeTail > e.storeHead && e.stores[(e.storeTail-1)&uint64(len(e.stores)-1)] >= ord {
		e.storeTail--
	}
	e.iq.Squash(e.head, ord, e.tail)
	e.tail = ord
	for i := range e.lastWriter {
		e.lastWriter[i] = noHTOrd
	}
	for i := range e.lastPredWriter {
		e.lastPredWriter[i] = noHTOrd
	}
	for j := e.head; j < e.tail; j++ {
		ent := e.entry(j)
		if ent.hi.Inst.Op.WritesRd() && ent.hi.Inst.Rd != isa.X0 {
			e.lastWriter[ent.hi.Inst.Rd] = j
		}
		if ent.hi.Inst.Op == isa.PPRODUCE {
			e.lastPredWriter[ent.hi.Inst.PredDst] = j
		}
	}
	e.fetchIdx = progIdx
	e.fetchBlockedUntil = now + e.coreCfg.FrontendLatency()
}

// tryIssueLoad resolves helper-thread memory dependences with early store
// address generation: an older store's address is computed as soon as its
// base register is ready, letting independent loads bypass it. A load waits
// only for overlapping stores (until their data and predication resolve) or
// stores whose address is still unknown.
func (e *Engine) tryIssueLoad(ord uint64, ent *htEntry, now uint64, lanes *cpu.LanePool) bool {
	addr := e.srcVal(ent, 0) + uint64(ent.hi.Inst.Imm)
	size := ent.hi.Inst.Op.MemBytes()
	var fwd *htEntry
	mask := uint64(len(e.stores) - 1)
	for i := e.storeTail; i > e.storeHead; i-- {
		so := e.stores[(i-1)&mask]
		if so > ord {
			continue // younger than the load
		}
		older := e.entry(so)
		var oAddr uint64
		oSize := older.hi.Inst.Op.MemBytes()
		switch {
		case older.issued:
			oAddr = older.addr
		case e.storeAddrReady(older, now):
			oAddr = e.srcVal(older, 0) + uint64(older.hi.Inst.Imm)
		default:
			// Address unknown: issue speculatively. If the store later
			// conflicts, the violation squashes and replays this load
			// ("rollback-free except for load violations").
			continue
		}
		if !(oAddr < addr+uint64(size) && addr < oAddr+uint64(oSize)) {
			continue // provably independent
		}
		// Overlapping: wait until the store has executed (data + predicate).
		if !older.issued || older.doneAt > now {
			return false
		}
		if !older.enabled {
			continue // predicated-false store: transparent
		}
		fwd = older
		break
	}
	if !lanes.TakeMem() {
		return false
	}
	ent.addr = addr
	ent.memSize = size
	var raw uint64
	switch {
	case fwd != nil && fwd.addr == addr && fwd.memSize >= size:
		raw = fwd.storeVal & sizeMask(size)
		ent.doneAt = now + e.coreCfg.FwdLatency
	default:
		// Retired stores live in the speculative store cache; misses fall
		// through to retire-time architectural memory.
		v, hit := e.spec.ReadLoad(e.mem, addr, size)
		raw = v
		if fwd != nil {
			// Partial overlap: merge the in-flight store's bytes.
			raw = mergeStore(raw, addr, size, fwd)
		}
		if hit {
			e.Stats.LoadsSpec++
			ent.doneAt = now + e.coreCfg.FwdLatency
		} else {
			ent.doneAt = e.hier.Load(ent.hi.OrigPC, addr, now)
		}
	}
	ent.result = extendHTLoad(ent.hi.Inst.Op, raw)
	ent.issued = true
	return true
}

// storeAddrReady reports whether a store's address operand has resolved.
func (e *Engine) storeAddrReady(st *htEntry, now uint64) bool {
	ord := st.srcs[0]
	if ord == noHTOrd || ord < e.head {
		return true
	}
	p := e.entry(ord)
	return p.issued && p.doneAt <= now
}

func sizeMask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * size)) - 1
}

func mergeStore(base uint64, addr uint64, size int, st *htEntry) uint64 {
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if a >= st.addr && a < st.addr+uint64(st.memSize) {
			b := byte(st.storeVal >> (8 * (a - st.addr)))
			base = (base &^ (0xFF << (8 * i))) | uint64(b)<<(8*i)
		}
	}
	return base
}

func extendHTLoad(op isa.Op, raw uint64) uint64 {
	switch op {
	case isa.LD:
		return raw
	case isa.LW:
		return uint64(int64(int32(uint32(raw))))
	case isa.LWU:
		return uint64(uint32(raw))
	case isa.LB:
		return uint64(int64(int8(uint8(raw))))
	case isa.LBU:
		return uint64(uint8(raw))
	}
	return raw
}

func (e *Engine) fetch(now uint64) {
	if now < e.fetchBlockedUntil {
		return
	}
	if e.prog.Kind == Inner && !e.visitActive {
		// Wait for the outer thread to queue a visit; inject its live-ins.
		visit, ok := e.vq.Pop()
		if !ok {
			e.Stats.VisitWaits++
			return
		}
		if len(visit.LiveIns) != len(e.prog.LiveInsOT) {
			panic("core: visit live-in arity mismatch (SetVisitRegs out of sync with LiveInsOT)")
		}
		for i, r := range e.prog.LiveInsOT {
			e.regs[r] = visit.LiveIns[i]
		}
		e.visitActive = true
		e.Stats.Visits++
		e.fetchIdx = 0
		// Move-injection cost for the visit's live-ins (values are read
		// directly from the Visit Queue entry, Section V-F).
		e.fetchBlockedUntil = now + 1 + uint64(len(e.prog.LiveInsOT)/maxInt(e.lim.FetchWidth, 1))
		return
	}
	width := e.lim.FetchWidth
	if width < 1 {
		width = 1
	}
	for n := 0; n < width; n++ {
		if e.tail-e.head >= uint64(e.lim.ROB) {
			return
		}
		hi := &e.prog.Insts[e.fetchIdx]
		op := hi.Inst.Op
		if op.IsLoad() && e.nLoads >= e.lim.LQ {
			return
		}
		if op.IsStore() && e.storeTail-e.storeHead >= uint64(e.lim.SQ) {
			return
		}
		if op.WritesRd() && e.nDests >= e.lim.PRF-isa.NumRegs {
			return
		}
		ord := e.tail
		ent := e.entry(ord)
		// Zeroed in place: a literal with fields would be built in a
		// temporary and copied.
		*ent = htEntry{}
		ent.hi, ent.progIdx = hi, e.fetchIdx
		ent.srcs, ent.predSrc = [2]uint64{noHTOrd, noHTOrd}, noHTOrd
		srcs, ns := hi.Inst.SrcRegs()
		for i := 0; i < ns; i++ {
			r := srcs[i]
			if r == isa.X0 {
				ent.srcs[ent.nsrc] = noHTOrd
				ent.srcVals[ent.nsrc] = 0
				ent.nsrc++
				continue
			}
			if w := e.lastWriter[r]; w != noHTOrd && w >= e.head {
				ent.srcs[ent.nsrc] = w
			} else {
				ent.srcs[ent.nsrc] = noHTOrd
				ent.srcVals[ent.nsrc] = e.regs[r]
			}
			ent.nsrc++
		}
		if hi.Inst.PredSrc != isa.Pred0 {
			if w := e.lastPredWriter[hi.Inst.PredSrc]; w != noHTOrd && w >= e.head {
				ent.predSrc = w
			} else {
				ent.predVal = e.preds[hi.Inst.PredSrc]
			}
		}
		if op.WritesRd() && hi.Inst.Rd != isa.X0 {
			e.lastWriter[hi.Inst.Rd] = ord
			e.nDests++
		}
		if op == isa.PPRODUCE {
			e.lastPredWriter[hi.Inst.PredDst] = ord
		}
		if op.IsLoad() {
			e.nLoads++
		}
		if op.IsStore() {
			e.stores[e.storeTail&uint64(len(e.stores)-1)] = ord
			e.storeTail++
		}
		e.iq.Insert(ord, [cpu.MaxSrcs]uint64{ent.srcs[0], ent.srcs[1], ent.predSrc})
		e.tail = ord + 1
		e.Stats.Fetched++
		e.fetchIdx++
		if hi.IsLoopBranch {
			// Wrap: assume taken, next iteration streams immediately
			// (sequential HTC fetch, Section V-E).
			e.fetchIdx = 0
			// Throttle run-ahead: don't fetch past the queue window.
			if e.qs != nil && e.qs.Full() {
				return
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Stall blocks the engine's fetch for the given number of cycles (used by
// the Branch Runahead baseline to charge chain-group rollback penalties).
func (e *Engine) Stall(now, cycles uint64) {
	if until := now + cycles; until > e.fetchBlockedUntil {
		e.fetchBlockedUntil = until
	}
}
