package core

import (
	"sort"

	"phelps/internal/isa"
)

// This file implements Section V-C (helper thread construction: HTCB, IBDA
// growth via the Last Producer Table, store->load dependence capture) and
// the Section V-J eligibility rules, culminating in conversion to the final
// helper-thread programs (Section V-E).

// ThreadKind distinguishes the three helper thread types.
type ThreadKind int

// The paper's three helper thread types (Section V-C).
const (
	InnerOnly ThreadKind = iota // inner-thread-only (non-nested loop)
	Outer                       // outer-thread of a nested loop
	Inner                       // inner-thread of a nested loop
)

func (k ThreadKind) String() string {
	switch k {
	case InnerOnly:
		return "inner-thread-only"
	case Outer:
		return "outer-thread"
	case Inner:
		return "inner-thread"
	}
	return "?"
}

// RejectReason explains why a loop was deemed ineligible (Section V-J).
type RejectReason int

// Rejection reasons, mapped to Fig. 14 categories.
const (
	RejectNone          RejectReason = iota
	RejectTooBig                     // HT > 75% of loop, or exceeds HTC row capacity
	RejectNotIterating               // too few iterations per visit
	RejectOuterDepInner              // outer-thread data-dependent on inner-thread
	RejectParamLimits                // live-in sets exceed hardware limits
	RejectComplex                    // complex guards / no header branch found
)

func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "eligible"
	case RejectTooBig:
		return "ht too big"
	case RejectNotIterating:
		return "not iterating enough"
	case RejectOuterDepInner:
		return "outer depends on inner"
	case RejectParamLimits:
		return "parameter limits"
	case RejectComplex:
		return "complex guards"
	}
	return "?"
}

// HTInst is one finalized helper-thread instruction.
type HTInst struct {
	Inst         isa.Inst
	OrigPC       uint64
	IsLoopBranch bool
	IsHeader     bool // outer-thread: the inner loop's header branch
	QueueID      int  // prediction queue index, -1 if none
}

// HelperProgram is a finalized helper thread: a straight-line instruction
// sequence whose only control flow is the loop branch (fetch wraps there).
type HelperProgram struct {
	Kind       ThreadKind
	Insts      []HTInst
	LiveInsMT  []isa.Reg // copied from the main thread at activation
	LiveInsOT  []isa.Reg // inner-thread: supplied per visit via the Visit Queue
	LoopBranch uint64    // original PC of the thread's loop branch
	QueuePCs   []uint64  // delinquent branch PCs covered by this thread
}

// ConstructionConfig parameterizes construction (paper values by default).
type ConstructionConfig struct {
	HTCBSize        int // 256
	StoreQueueSize  int // 16
	CDFSMRows       int // 32
	CDFSMCols       int // 16
	BranchListLen   int // 16
	MaxHTInsts      int // 128 per HTC row (64+64 when nested)
	MaxLiveIns      int // per MT live-in set
	MaxVisitLiveIns int // Visit Queue slots per visit (4)
	MaxQueues       int // 16 prediction queues
	SizeRulePct     int // 75
	MinTrips        float64

	IncludeStores          bool // ablation: Fig. 12b / Fig. 11
	IncludeGuardedBranches bool // ablation: Fig. 11 (pre-execute b2 or not)
}

// DefaultConstructionConfig returns the paper's parameters.
func DefaultConstructionConfig() ConstructionConfig {
	return ConstructionConfig{
		HTCBSize: 256, StoreQueueSize: 16,
		CDFSMRows: 32, CDFSMCols: 16, BranchListLen: 16,
		MaxHTInsts: 128, MaxLiveIns: 8, MaxVisitLiveIns: 4, MaxQueues: 16,
		SizeRulePct: 75, MinTrips: 16,
		IncludeStores: true, IncludeGuardedBranches: true,
	}
}

type retiredStore struct {
	pc   uint64
	addr uint64
	size int
}

// Construction is the in-flight state while building helper threads for one
// loop (during epoch N+1).
type Construction struct {
	cfg ConstructionConfig
	LT  *LTEntry

	// HTCB: instructions of the loop collected at fetch.
	htcb map[uint64]isa.Inst

	// Membership of the growing helper threads.
	inInner map[uint64]bool
	inOuter map[uint64]bool

	// Live-in register sets.
	liveMTInner map[isa.Reg]bool
	liveOTInner map[isa.Reg]bool
	liveMTOuter map[isa.Reg]bool

	// LPT: last producer PC per logical register.
	lpt [isa.NumRegs]uint64

	storeQ []retiredStore

	// CDFSM per thread (inner rows cleared at inner loop branch, outer rows
	// at outer loop branch).
	cdInner    *CDFSM
	cdOuter    *CDFSM
	rowOfInner map[uint64]int // pc -> row (branches then stores)
	colOfInner map[uint64]int // delinquent branch pc -> column
	rowOfOuter map[uint64]int
	colOfOuter map[uint64]int

	delinq   map[uint64]bool
	noQueue  map[uint64]bool // delinquent branches shed from queue coverage
	headerPC uint64          // detected inner-loop header branch (nested)

	reject RejectReason
}

// NewConstruction starts construction for an LT entry.
func NewConstruction(cfg ConstructionConfig, lt *LTEntry) *Construction {
	c := &Construction{
		cfg:         cfg,
		LT:          lt,
		htcb:        make(map[uint64]isa.Inst),
		inInner:     make(map[uint64]bool),
		inOuter:     make(map[uint64]bool),
		liveMTInner: make(map[isa.Reg]bool),
		liveOTInner: make(map[isa.Reg]bool),
		liveMTOuter: make(map[isa.Reg]bool),
		cdInner:     NewCDFSM(cfg.CDFSMRows, cfg.CDFSMCols, cfg.BranchListLen),
		rowOfInner:  make(map[uint64]int),
		colOfInner:  make(map[uint64]int),
		delinq:      make(map[uint64]bool),
	}
	if lt.IsNested {
		c.cdOuter = NewCDFSM(cfg.CDFSMRows, cfg.CDFSMCols, cfg.BranchListLen)
		c.rowOfOuter = make(map[uint64]int)
		c.colOfOuter = make(map[uint64]int)
	}
	// Seeds (Section V-C).
	for _, pc := range lt.Branches {
		c.delinq[pc] = true
		if c.innerBounds().Contains(pc) {
			c.addInner(pc)
			c.registerBranch(pc, true)
		} else if lt.IsNested && lt.Loop.Contains(pc) {
			c.addOuter(pc)
			c.registerBranch(pc, false)
		}
	}
	// Loop backward branches are seeds too.
	c.addInner(c.innerBounds().Branch)
	if lt.IsNested {
		c.addOuter(lt.Loop.Branch)
	}
	return c
}

// innerBounds returns the bounds of the thread that executes the innermost
// loop (the inner loop for nested, the loop itself otherwise).
func (c *Construction) innerBounds() LoopBounds {
	if c.LT.IsNested {
		return c.LT.InnerLoop
	}
	return c.LT.Loop
}

func (c *Construction) addInner(pc uint64) { c.inInner[pc] = true }
func (c *Construction) addOuter(pc uint64) { c.inOuter[pc] = true }

// registerBranch assigns CDFSM row+column for a delinquent branch. The
// matrix has fixed capacity (32 rows x 16 columns); branches beyond it are
// simply not tracked for control dependences and behave as unguarded (such
// oversized loops are rejected by the size rule in practice).
func (c *Construction) registerBranch(pc uint64, inner bool) {
	rows, cols := c.rowOfInner, c.colOfInner
	if !inner {
		if c.cdOuter == nil {
			return
		}
		rows, cols = c.rowOfOuter, c.colOfOuter
	}
	if _, ok := rows[pc]; ok {
		return
	}
	if len(rows) >= c.cfg.CDFSMRows || len(cols) >= c.cfg.CDFSMCols {
		return
	}
	rows[pc] = len(rows)
	cols[pc] = len(cols)
}

// storeRow returns (allocating if needed) the CDFSM row for a store.
func storeRow(rows map[uint64]int, maxRows int, pc uint64) int {
	if r, ok := rows[pc]; ok {
		return r
	}
	if len(rows) >= maxRows {
		return -1
	}
	r := len(rows)
	rows[pc] = r
	return r
}

// CollectFetch records a fetched instruction in the HTCB if it falls inside
// the loop's PC bounds (footnote 1: all paths through the loop are
// collected).
func (c *Construction) CollectFetch(pc uint64, inst isa.Inst) {
	if !c.LT.Loop.Contains(pc) {
		return
	}
	if _, ok := c.htcb[pc]; ok {
		return
	}
	if len(c.htcb) >= c.cfg.HTCBSize {
		// Loop bigger than the HTCB: cannot construct.
		c.reject = RejectTooBig
		return
	}
	c.htcb[pc] = inst
}

// RetireEvent carries the retire-time information construction needs.
type RetireEvent struct {
	PC    uint64
	Inst  isa.Inst
	Taken bool // conditional branches
	Addr  uint64
	Size  int
}

// ObserveRetire performs one retirement's worth of training: LPT update,
// IBDA growth, store capture, CDFSM training, and header-branch detection.
func (c *Construction) ObserveRetire(ev *RetireEvent) {
	pc := ev.PC
	op := ev.Inst.Op
	inLoop := c.LT.Loop.Contains(pc)
	inner := c.innerBounds()

	// --- IBDA growth: add producers of included instructions ---
	if c.inInner[pc] || c.inOuter[pc] {
		srcs, n := ev.Inst.SrcRegs()
		for i := 0; i < n; i++ {
			r := srcs[i]
			if r == isa.X0 {
				continue
			}
			p := c.lpt[r]
			c.growFromProducer(pc, r, p)
		}
	}

	// --- LPT update (every retired instruction) ---
	if op.WritesRd() && ev.Inst.Rd != isa.X0 {
		c.lpt[ev.Inst.Rd] = pc
	}

	if !inLoop {
		return
	}

	// --- store capture queue ---
	if op.IsStore() {
		if len(c.storeQ) >= c.cfg.StoreQueueSize {
			c.storeQ = c.storeQ[1:]
		}
		c.storeQ = append(c.storeQ, retiredStore{pc: pc, addr: ev.Addr, size: ev.Size})
		// CDFSM training for stores already included in a thread.
		if c.inInner[pc] && !c.delinq[pc] {
			if row := storeRow(c.rowOfInner, c.cfg.CDFSMRows, pc); row >= 0 {
				c.cdInner.ObserveStore(row)
			}
		} else if c.inOuter[pc] && c.cdOuter != nil {
			if row := storeRow(c.rowOfOuter, c.cfg.CDFSMRows, pc); row >= 0 {
				c.cdOuter.ObserveStore(row)
			}
		}
	}

	// --- store->load dependence capture ---
	if op.IsLoad() && (c.inInner[pc] || c.inOuter[pc]) {
		for i := len(c.storeQ) - 1; i >= 0; i-- {
			st := c.storeQ[i]
			if st.addr < ev.Addr+uint64(ev.Size) && ev.Addr < st.addr+uint64(st.size) {
				c.includeStoreForLoad(loadIn(c, pc), st.pc)
				break
			}
		}
	}

	// --- CDFSM training for delinquent branches ---
	if op.IsCondBranch() {
		if c.delinq[pc] {
			if inner.Contains(pc) {
				if col, ok := c.colOfInner[pc]; ok {
					c.cdInner.ObserveBranch(c.rowOfInner[pc], col, ev.Taken)
				}
			} else if c.cdOuter != nil {
				if col, ok := c.colOfOuter[pc]; ok {
					c.cdOuter.ObserveBranch(c.rowOfOuter[pc], col, ev.Taken)
				}
			}
		}
		// Iteration boundaries clear the branch lists.
		if pc == inner.Branch {
			c.cdInner.EndIteration()
		}
		if c.LT.IsNested && pc == c.LT.Loop.Branch && c.cdOuter != nil {
			c.cdOuter.EndIteration()
		}
		// Header-branch detection (nested): a conditional branch in the
		// outer loop, before the inner loop, whose taken target jumps past
		// the inner loop's backward branch.
		if c.LT.IsNested && c.headerPC == 0 && !inner.Contains(pc) && pc < inner.Target {
			target := pc + uint64(ev.Inst.Imm)
			if target > inner.Branch {
				c.headerPC = pc
				c.addOuter(pc)
				c.registerBranch(pc, false)
			}
		}
	}
}

// loadIn reports which thread a load belongs to.
func loadIn(c *Construction, pc uint64) ThreadKind {
	if c.inInner[pc] {
		if c.LT.IsNested {
			return Inner
		}
		return InnerOnly
	}
	return Outer
}

// includeStoreForLoad adds a conflicting store (and transitively, its slice,
// via subsequent IBDA) to the thread that owns the store's PC region. Both
// threads commit stores to the shared speculative store cache, so values
// flow between them regardless of which thread's load detected the conflict.
func (c *Construction) includeStoreForLoad(loadThread ThreadKind, storePC uint64) {
	_ = loadThread
	inner := c.innerBounds()
	switch {
	case inner.Contains(storePC):
		c.addInner(storePC)
	case c.LT.IsNested && c.LT.Loop.Contains(storePC):
		c.addOuter(storePC)
	}
}

// growFromProducer implements one IBDA step: instruction at pc (member of a
// thread) consumed register r last produced at producer PC p.
func (c *Construction) growFromProducer(pc uint64, r isa.Reg, p uint64) {
	inner := c.innerBounds()
	isInner := c.inInner[pc]
	if p == 0 {
		// No producer observed yet: conservatively a live-in.
		c.noteLiveIn(isInner, r)
		return
	}
	switch {
	case inner.Contains(p):
		if isInner {
			c.addInner(p)
		} else {
			// Outer-thread instruction consuming an inner-loop value:
			// Section V-J condition 3.
			c.reject = RejectOuterDepInner
		}
	case c.LT.IsNested && c.LT.Loop.Contains(p):
		if isInner {
			// Produced per outer iteration: inner-thread live-in supplied by
			// the outer thread through the Visit Queue; the outer thread
			// must compute it.
			c.liveOTInner[r] = true
			c.addOuter(p)
		} else {
			c.addOuter(p)
		}
	default:
		c.noteLiveIn(isInner, r)
	}
}

func (c *Construction) noteLiveIn(isInner bool, r isa.Reg) {
	if isInner {
		c.liveMTInner[r] = true
	} else {
		c.liveMTOuter[r] = true
	}
}

// Reject returns the current rejection state (RejectNone while viable).
func (c *Construction) Reject() RejectReason { return c.reject }

// Finalize applies the Section V-J eligibility rules and, if eligible,
// converts the grown threads into HelperPrograms (Section V-E). trips
// supplies iterations-per-visit statistics for the trigger loop.
func (c *Construction) Finalize(trips *TripStats) ([]*HelperProgram, RejectReason) {
	if c.reject != RejectNone {
		return nil, c.reject
	}
	// Rule 2: enough iterations per visit of the trigger (outermost) loop.
	if trips.AvgTrips(c.LT.Loop.Branch) < c.cfg.MinTrips {
		return nil, RejectNotIterating
	}
	if c.LT.IsNested && c.headerPC == 0 {
		return nil, RejectComplex
	}

	// Gather member PCs per thread in program order.
	innerPCs := sortedPCs(c.inInner)
	var outerPCs []uint64
	if c.LT.IsNested {
		outerPCs = sortedPCs(c.inOuter)
	}

	// Rule 1: helper thread size <= 75% of the loop's instructions.
	loopSize := 0
	for pc := range c.htcb {
		if c.LT.Loop.Contains(pc) {
			loopSize++
		}
	}
	htSize := len(innerPCs) + len(outerPCs)
	if loopSize == 0 || htSize*100 > loopSize*c.cfg.SizeRulePct {
		return nil, RejectTooBig
	}
	// HTC capacity: 128 instructions per row, split in half when nested.
	capPerThread := c.cfg.MaxHTInsts
	if c.LT.IsNested {
		capPerThread /= 2
	}
	if len(innerPCs) > capPerThread || len(outerPCs) > capPerThread {
		return nil, RejectTooBig
	}

	// Queue budget across both threads: if more delinquent branches than
	// prediction queues (16), shed coverage from the least valuable ones —
	// loop backward branches first, then the lowest misprediction counts.
	// Uncovered branches keep their predicate producers (guard chains stay
	// intact) but fall back to the core's predictor in the main thread.
	var queueCandidates []uint64
	for pc := range c.delinq {
		if c.inInner[pc] || c.inOuter[pc] {
			queueCandidates = append(queueCandidates, pc)
		}
	}
	c.noQueue = make(map[uint64]bool)
	if len(queueCandidates) > c.cfg.MaxQueues {
		sort.Slice(queueCandidates, func(i, j int) bool {
			a, b := queueCandidates[i], queueCandidates[j]
			aLoop := a == c.LT.Loop.Branch || a == c.innerBounds().Branch
			bLoop := b == c.LT.Loop.Branch || b == c.innerBounds().Branch
			if aLoop != bLoop {
				return aLoop // loop branches shed first
			}
			if c.LT.BranchMisp[a] != c.LT.BranchMisp[b] {
				return c.LT.BranchMisp[a] < c.LT.BranchMisp[b]
			}
			return a < b
		})
		for _, pc := range queueCandidates[:len(queueCandidates)-c.cfg.MaxQueues] {
			c.noQueue[pc] = true
		}
	}

	var progs []*HelperProgram
	if c.LT.IsNested {
		outer, r := c.convert(Outer, outerPCs, c.cdOuter, c.rowOfOuter, c.colOfOuter, c.LT.Loop.Branch)
		if r != RejectNone {
			return nil, r
		}
		inner, r := c.convert(Inner, innerPCs, c.cdInner, c.rowOfInner, c.colOfInner, c.LT.InnerLoop.Branch)
		if r != RejectNone {
			return nil, r
		}
		progs = []*HelperProgram{outer, inner}
	} else {
		ito, r := c.convert(InnerOnly, innerPCs, c.cdInner, c.rowOfInner, c.colOfInner, c.LT.Loop.Branch)
		if r != RejectNone {
			return nil, r
		}
		progs = []*HelperProgram{ito}
	}

	// Live-in register sets: the upward-exposed uses of each thread (read
	// before written in thread program order). This covers both values
	// produced outside the loop and the initial values of loop-carried
	// registers. For the inner thread, registers the outer thread produces
	// arrive per visit through the Visit Queue; the rest come from the main
	// thread at activation.
	var outerWrites map[isa.Reg]bool
	if c.LT.IsNested {
		outerWrites = writtenRegs(progs[0])
	}
	for _, p := range progs {
		exposed := upwardExposed(p)
		p.LiveInsMT = nil
		p.LiveInsOT = nil
		for _, r := range exposed {
			if p.Kind == Inner && outerWrites[r] {
				p.LiveInsOT = append(p.LiveInsOT, r)
			} else {
				p.LiveInsMT = append(p.LiveInsMT, r)
			}
		}
		if len(p.LiveInsMT) > c.cfg.MaxLiveIns {
			return nil, RejectParamLimits
		}
		if len(p.LiveInsOT) > c.cfg.MaxVisitLiveIns {
			return nil, RejectParamLimits
		}
	}
	return progs, RejectNone
}

// writtenRegs collects the integer destination registers a thread writes.
func writtenRegs(p *HelperProgram) map[isa.Reg]bool {
	w := make(map[isa.Reg]bool)
	for i := range p.Insts {
		inst := &p.Insts[i].Inst
		if inst.Op.WritesRd() && inst.Rd != isa.X0 {
			w[inst.Rd] = true
		}
	}
	return w
}

// upwardExposed returns the registers a thread reads before writing, in
// ascending register order.
func upwardExposed(p *HelperProgram) []isa.Reg {
	written := make(map[isa.Reg]bool)
	exposed := make(map[isa.Reg]bool)
	for i := range p.Insts {
		inst := &p.Insts[i].Inst
		srcs, n := inst.SrcRegs()
		for j := 0; j < n; j++ {
			r := srcs[j]
			if r != isa.X0 && !written[r] {
				exposed[r] = true
			}
		}
		if inst.Op.WritesRd() && inst.Rd != isa.X0 {
			written[inst.Rd] = true
		}
	}
	return sortedRegs(exposed)
}

func sortedPCs(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for pc := range set {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// convert turns one thread's member instructions into a HelperProgram:
// delinquent branches become predicate producers with assigned predicate
// destination registers; stores and predicate producers receive their
// predicate source operand from the CDFSM (Section V-E).
func (c *Construction) convert(kind ThreadKind, pcs []uint64, cd *CDFSM, rowOf, colOf map[uint64]int, loopBranch uint64) (*HelperProgram, RejectReason) {
	p := &HelperProgram{Kind: kind, LoopBranch: loopBranch}
	// Live-in sets are computed by Finalize from the converted program's
	// upward-exposed uses.

	// Decide which delinquent branches are kept as predicate producers.
	// Dropped guarded branches (ablation) keep their slices but get no
	// queue and no conversion.
	kept := make(map[uint64]bool)
	guards := make(map[uint64]Guard)
	colToPC := make(map[int]uint64)
	for pc, col := range colOf {
		colToPC[col] = pc
	}
	for _, pc := range pcs {
		if !c.delinq[pc] {
			continue
		}
		var g Guard
		if row, ok := rowOf[pc]; ok {
			g = cd.GuardOf(row)
		}
		guards[pc] = g
		if g.Complex {
			return nil, RejectComplex
		}
		if g.Valid && !c.cfg.IncludeGuardedBranches {
			continue // ablation: do not pre-execute guarded branches
		}
		kept[pc] = true
	}

	// effectiveGuard walks the guard chain until it reaches a kept branch
	// (or none): dropping b2 makes s1 predicated on b1 alone, as the paper's
	// Phelps:b1->s1 ablation describes.
	effectiveGuard := func(g Guard) (Guard, bool) {
		seen := 0
		for g.Valid {
			gpc := colToPC[g.Col]
			if kept[gpc] {
				return g, true
			}
			g = guards[gpc]
			seen++
			if seen > 32 {
				break
			}
		}
		return Guard{}, false
	}

	// Assign predicate destination registers (pred1..) in program order.
	predOf := make(map[uint64]isa.PredReg)
	next := isa.PredReg(1)
	for _, pc := range pcs {
		if kept[pc] || pc == c.headerPC {
			if next >= isa.NumPredRegs {
				return nil, RejectParamLimits
			}
			predOf[pc] = next
			next++
		}
	}

	// Queue IDs in program order (shared numbering handled by the caller's
	// partitioning; IDs here are per-thread).
	qid := 0
	for _, pc := range pcs {
		inst, ok := c.htcb[pc]
		if !ok {
			// Instruction never collected (e.g. a path not fetched): the
			// thread would execute garbage; reject.
			return nil, RejectComplex
		}
		hi := HTInst{Inst: inst, OrigPC: pc, QueueID: -1}
		switch {
		case pc == loopBranch:
			hi.IsLoopBranch = true
			if c.delinq[pc] && !c.noQueue[pc] {
				hi.QueueID = qid
				p.QueuePCs = append(p.QueuePCs, pc)
				qid++
			}
		case kept[pc] || pc == c.headerPC:
			conv := isa.Inst{
				Op:      isa.PPRODUCE,
				Rs1:     inst.Rs1,
				Rs2:     inst.Rs2,
				CmpOp:   inst.Op,
				PredDst: predOf[pc],
			}
			if g, ok := effectiveGuard(guards[pc]); ok {
				conv.PredSrc = predOf[colToPC[g.Col]]
				conv.PredDir = g.DirTaken
			}
			hi.Inst = conv
			hi.IsHeader = pc == c.headerPC && kind == Outer
			if c.delinq[pc] && !c.noQueue[pc] {
				hi.QueueID = qid
				p.QueuePCs = append(p.QueuePCs, pc)
				qid++
			}
		case c.delinq[pc]:
			// Dropped guarded branch (ablation): its slice remains but the
			// branch itself is omitted from the helper thread.
			continue
		case inst.Op.IsStore():
			if !c.cfg.IncludeStores {
				continue // ablation: no stores in the helper thread
			}
			row, ok := rowOf[pc]
			if ok {
				if g := cd.GuardOf(row); g.Complex {
					return nil, RejectComplex
				} else if eg, ok := effectiveGuard(g); ok {
					hi.Inst.PredSrc = predOf[colToPC[eg.Col]]
					hi.Inst.PredDir = eg.DirTaken
				}
			}
		case inst.Op.IsCondBranch():
			// A non-delinquent branch grew into the thread (e.g. as a
			// producer — cannot happen for branches, which produce nothing).
			// Side-exit branches are never added; drop defensively.
			continue
		}
		p.Insts = append(p.Insts, hi)
	}
	if len(p.Insts) == 0 || !p.Insts[len(p.Insts)-1].IsLoopBranch {
		return nil, RejectComplex
	}
	return p, RejectNone
}

func sortedRegs(set map[isa.Reg]bool) []isa.Reg {
	out := make([]isa.Reg, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
