// Microarchitectural invariant checks and the pipeline-occupancy snapshot
// (see DESIGN.md · Verification). CheckInvariants is the cheap per-cycle
// structural audit; CheckInvariantsDeep re-derives every occupancy counter
// from first principles and cross-checks the memory's pending-store ring
// against the stores the pipeline actually holds in flight. Both are valid
// between Cycle calls (the per-phase transients inside a cycle are not
// checked states).
package cpu

import (
	"fmt"

	"phelps/internal/isa"
)

// Occupancy is a point-in-time snapshot of the core's queue state, used to
// annotate oracle divergences and stall diagnoses with pipeline context.
type Occupancy struct {
	ROB, IQ, LQ, SQ int // occupied entries
	Dests           int // in-flight physical destinations (PRF pressure)
	Front           int // frontend entries
	Replay          int // instructions awaiting (re)fetch: squashed, or held by an I-cache miss
	Lim             Limits

	// ROB-head detail: the instruction blocking retirement, if any.
	HeadValid  bool
	HeadSeq    uint64
	HeadPC     uint64
	HeadOp     isa.Op
	HeadIssued bool

	FetchStalled bool // fetch blocked on an unresolved mispredict
	Halted       bool
}

// Occupancy captures the core's current queue state.
func (c *Core) Occupancy() Occupancy {
	o := Occupancy{
		ROB:          int(c.robTail - c.robHead),
		IQ:           c.iq.Len(),
		LQ:           c.nLoads,
		SQ:           c.nStores,
		Dests:        c.nDests,
		Front:        int(c.frontTail - c.robTail),
		Replay:       int(c.srcTail - c.frontTail),
		Lim:          c.lim,
		FetchStalled: c.stallActive,
		Halted:       c.halted,
	}
	if c.robHead < c.robTail {
		e := c.entry(c.robHead)
		o.HeadValid = true
		o.HeadSeq = e.d.Seq
		o.HeadPC = e.d.PC
		o.HeadOp = e.d.Inst.Op
		o.HeadIssued = e.issued
	}
	return o
}

func (o Occupancy) String() string {
	s := fmt.Sprintf("ROB %d/%d IQ %d/%d LQ %d/%d SQ %d/%d dests %d front %d replay %d",
		o.ROB, o.Lim.ROB, o.IQ, o.Lim.IQ, o.LQ, o.Lim.LQ, o.SQ, o.Lim.SQ,
		o.Dests, o.Front, o.Replay)
	if o.HeadValid {
		s += fmt.Sprintf(" head{seq %d pc %#x %v issued %v}", o.HeadSeq, o.HeadPC, o.HeadOp, o.HeadIssued)
	}
	if o.FetchStalled {
		s += " fetch-stalled"
	}
	if o.Halted {
		s += " halted"
	}
	return s
}

// CheckInvariants audits the O(1)-checkable structural invariants: cursor
// ordering and occupancy counters within the active partition limits.
// Returns nil when all hold.
func (c *Core) CheckInvariants() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("cpu: invariant violated: %s [%s]", fmt.Sprintf(format, args...), c.Occupancy())
	}
	if c.robHead > c.robTail || c.robTail > c.frontTail || c.frontTail > c.srcTail {
		return fail("ring cursors out of order: robHead %d robTail %d frontTail %d srcTail %d",
			c.robHead, c.robTail, c.frontTail, c.srcTail)
	}
	if n := c.srcTail - c.robHead; n > uint64(len(c.ring)) {
		return fail("%d instructions in flight exceed the ring's %d slots", n, len(c.ring))
	}
	if n := c.robTail - c.robHead; n > uint64(c.lim.ROB) {
		return fail("ROB occupancy %d exceeds limit %d", n, c.lim.ROB)
	}
	// The frontend is bounded by full-machine width times frontend depth
	// (partition limits only shrink the bound fetch enforces, and a
	// repartition squashes first).
	if n := c.frontTail - c.robTail; n > uint64(c.cfg.FetchWidth)*c.cfg.FrontendLatency() {
		return fail("frontend occupancy %d exceeds %d×%d", n, c.cfg.FetchWidth, c.cfg.FrontendLatency())
	}
	if c.storeHead > c.storeTail {
		return fail("store-queue head %d > tail %d", c.storeHead, c.storeTail)
	}
	if c.storeTail-c.storeHead != uint64(c.nStores) {
		return fail("store-queue occupancy %d != nStores %d", c.storeTail-c.storeHead, c.nStores)
	}
	if n := c.iq.Len(); n < 0 || n > c.lim.IQ {
		return fail("IQ occupancy %d outside [0,%d]", n, c.lim.IQ)
	}
	if c.nLoads < 0 || c.nLoads > c.lim.LQ {
		return fail("nLoads %d outside [0,%d]", c.nLoads, c.lim.LQ)
	}
	if c.nStores < 0 || c.nStores > c.lim.SQ {
		return fail("nStores %d outside [0,%d]", c.nStores, c.lim.SQ)
	}
	if c.nDests < 0 || c.nDests > c.lim.PRF-isa.NumRegs {
		return fail("nDests %d outside [0,%d] (PRF %d)", c.nDests, c.lim.PRF-isa.NumRegs, c.lim.PRF)
	}
	return nil
}

// CheckInvariantsDeep walks every in-flight instruction, re-deriving the
// occupancy counters, the per-register last-writer map, the store queue and
// the issue index (IssueQueue.Audit) from the ROB contents, and cross-checks
// the memory's pending-store ring against the store instructions held
// anywhere in the ring.
// O(in-flight window); run it sampled.
func (c *Core) CheckInvariantsDeep() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("cpu: deep invariant violated: %s [%s]", fmt.Sprintf(format, args...), c.Occupancy())
	}
	var loads, stores, dests int
	var youngest [isa.NumRegs]uint64
	for i := range youngest {
		youngest[i] = NoOrd
	}
	havePrev := false
	var prevSeq uint64
	for ord := c.robHead; ord < c.robTail; ord++ {
		e := c.entry(ord)
		if havePrev && e.d.Seq <= prevSeq {
			return fail("ROB seq not increasing: ord %d seq %d after seq %d", ord, e.d.Seq, prevSeq)
		}
		prevSeq, havePrev = e.d.Seq, true
		op := e.d.Inst.Op
		if op.IsLoad() {
			loads++
		}
		if op.IsStore() {
			stores++
		}
		if op.WritesRd() && e.d.Inst.Rd != isa.X0 {
			dests++
			youngest[e.d.Inst.Rd] = ord
		}
	}
	if loads != c.nLoads {
		return fail("ROB holds %d loads, nLoads %d", loads, c.nLoads)
	}
	if stores != c.nStores {
		return fail("ROB holds %d stores, nStores %d", stores, c.nStores)
	}
	if dests != c.nDests {
		return fail("ROB holds %d destination writers, nDests %d (PRF leak)", dests, c.nDests)
	}
	if err := c.iq.Audit(c.robHead, c.robTail, func(ord uint64) EntryView {
		e := c.entry(ord)
		return EntryView{Issued: e.issued, DoneAt: e.doneAt, Srcs: e.srcs}
	}); err != nil {
		return fail("%v", err)
	}
	for r := 0; r < isa.NumRegs; r++ {
		if c.lastWriter[r] != youngest[r] {
			return fail("lastWriter[%v] = ord %d, youngest in-flight writer is ord %d",
				isa.Reg(r), c.lastWriter[r], youngest[r])
		}
	}
	mask := uint64(len(c.storeQ) - 1)
	havePrev = false
	for i := c.storeHead; i < c.storeTail; i++ {
		ord := c.storeQ[i&mask]
		if ord < c.robHead || ord >= c.robTail {
			return fail("store queue ordinal %d outside ROB window [%d,%d]", ord, c.robHead, c.robTail)
		}
		e := c.entry(ord)
		if !e.d.Inst.Op.IsStore() {
			return fail("store queue ordinal %d is %v, not a store", ord, e.d.Inst.Op)
		}
		if havePrev && e.d.Seq <= prevSeq {
			return fail("store queue seq not increasing at ordinal %d", ord)
		}
		prevSeq, havePrev = e.d.Seq, true
	}
	// Every store the emulator has staged and the timing model has not yet
	// retired is held somewhere in the ring; the counts must agree or a
	// store was dropped or duplicated across squash and re-fetch.
	inFlight := stores
	for ord := c.robTail; ord < c.srcTail; ord++ {
		if c.entry(ord).d.Inst.Op.IsStore() {
			inFlight++
		}
	}
	if pend := c.mem.PendingStores(); pend != inFlight {
		return fail("memory holds %d pending stores, pipeline holds %d in flight", pend, inFlight)
	}
	return nil
}
