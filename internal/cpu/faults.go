package cpu

// faultCorruptMask is XORed into the architectural register file by the
// CorruptRdSeq injection — a multi-bit flip that any value comparison
// catches.
const faultCorruptMask uint64 = 0xdead_0000_0000_0001

// FaultInjection deliberately breaks the timing model in targeted,
// reproducible ways so the verification machinery (lockstep oracle,
// invariant checks, stall watchdog — see internal/check and DESIGN.md ·
// Verification) can be tested against known bugs. Each field names a dynamic
// sequence number to strike; zero disables that fault (sequence 0, the first
// instruction, cannot be targeted). Intended for tests only: the injections
// corrupt architectural state or wedge the pipeline by design.
type FaultInjection struct {
	// SkipRetireSeq retires the instruction with resource bookkeeping but no
	// architectural effects and no retirement observer call — a dropped
	// retirement. The oracle catches the sequence gap at the next observed
	// retirement. Invalid for stores (skipping RetireStore desynchronizes the
	// pending-store ring, which the next store retirement reports as a
	// corruption error) and for HALT (the run would never end).
	SkipRetireSeq uint64

	// CorruptRdSeq XORs faultCorruptMask into the architectural register
	// file after the instruction's retirement write — retire-time register
	// corruption. The oracle's architectural-register comparison catches it.
	// Only meaningful for instructions that write a non-x0 destination.
	CorruptRdSeq uint64

	// LeakPRFSeq skips the physical-destination release at retirement — a
	// PRF free-list leak. The deep invariant recount catches the counter
	// drifting above the true in-flight writer population.
	LeakPRFSeq uint64

	// StickySeq prevents the instruction from ever issuing. The ROB head
	// blocks behind it and retirement stops — the forward-progress watchdog's
	// territory.
	StickySeq uint64

	// PanicAtSeq panics deliberately when the instruction retires — a
	// simulated simulator crash. The per-cell recover in RunCellCtx,
	// SampledRunCtx, and the phelpsd scheduler workers must turn it into a
	// contained ErrPanic without taking down the matrix or the daemon.
	PanicAtSeq uint64
}

// InjectFaults attaches (or, with nil, removes) a fault-injection plan. One
// nil check per retirement and per dispatch, and one per issue cycle, when
// unset.
func (c *Core) InjectFaults(f *FaultInjection) { c.faults = f }
