// Package cpu implements the cycle-level out-of-order superscalar core of
// Table III: 8-wide fetch/retire, 11-stage pipeline, 632-entry ROB, exact
// memory disambiguation with store->load forwarding, and horizontal frontend
// partitioning for helper threads (Table I).
//
// The core is execution-driven: it consumes the correct-path dynamic
// instruction stream from the functional emulator and models time. A
// mispredicted branch stalls fetch until the branch resolves in the backend,
// then pays the frontend refill — the standard structural model of the
// misprediction penalty (see DESIGN.md).
package cpu

// Config holds the core parameters (Table III defaults via DefaultConfig).
type Config struct {
	FetchWidth  int // instructions fetched per cycle
	RetireWidth int // instructions retired per cycle

	// PipelineDepth is the total number of stages fetch..retire. The
	// frontend (fetch to dispatch) latency is PipelineDepth - 3, leaving
	// issue, execute, and retire as the backend stages.
	PipelineDepth int

	ROB int
	IQ  int
	LQ  int
	SQ  int
	PRF int // physical integer registers (>= 32 + in-flight dests)

	SimpleALUs  int // simple-ALU issue slots per cycle (branches, ALU)
	MemLanes    int // load/store issue slots per cycle
	ComplexALUs int // MUL/DIV/FP-class issue slots per cycle

	MulLatency  uint64
	DivLatency  uint64
	FwdLatency  uint64 // store->load forwarding latency
	IQScanLimit int    // max IQ entries examined per cycle (scheduler reach)
}

// DefaultConfig returns the Table III configuration: 8-wide, 11-stage,
// ROB/PRF/LQ/SQ/IQ = 632/696/144/144/128, 4 simple ALUs, 2 load/store ports,
// 2 complex lanes.
func DefaultConfig() Config {
	return Config{
		FetchWidth:    8,
		RetireWidth:   8,
		PipelineDepth: 11,
		ROB:           632,
		IQ:            128,
		LQ:            144,
		SQ:            144,
		PRF:           696,
		SimpleALUs:    4,
		MemLanes:      2,
		ComplexALUs:   2,
		MulLatency:    4,
		DivLatency:    12,
		FwdLatency:    3,
		IQScanLimit:   128,
	}
}

// FrontendLatency is the fetch-to-dispatch latency implied by the pipeline
// depth. Fetch asks every cycle, so the receiver is a pointer: a Config value
// would be copied on each call.
func (c *Config) FrontendLatency() uint64 {
	fl := c.PipelineDepth - 3
	if fl < 1 {
		fl = 1
	}
	return uint64(fl)
}

// Limits are the dynamically adjustable resource bounds used for horizontal
// partitioning (Table I). A full-machine Limits equals the Config values.
type Limits struct {
	FetchWidth int
	ROB        int
	IQ         int
	LQ         int
	SQ         int
	PRF        int
}

// FullLimits returns the unpartitioned limits for a config.
func (c Config) FullLimits() Limits {
	return Limits{FetchWidth: c.FetchWidth, ROB: c.ROB, IQ: c.IQ, LQ: c.LQ, SQ: c.SQ, PRF: c.PRF}
}

// Scale returns limits scaled by num/den, floored at 1 (PRF keeps headroom
// for the 32 architectural registers).
func (l Limits) Scale(num, den int) Limits {
	s := func(v int) int {
		v = v * num / den
		if v < 1 {
			v = 1
		}
		return v
	}
	out := Limits{
		FetchWidth: s(l.FetchWidth),
		ROB:        s(l.ROB),
		IQ:         s(l.IQ),
		LQ:         s(l.LQ),
		SQ:         s(l.SQ),
		PRF:        l.PRF * num / den,
	}
	if out.PRF < 40 {
		out.PRF = 40
	}
	return out
}

// PartitionPlan describes the Table I fractional allocation of frontend
// width and resources among the main thread (MT), inner-thread-only (ITO),
// outer-thread (OT), and inner-thread (IT).
type PartitionPlan struct {
	MTNum, MTDen int
	OTNum, OTDen int // zero denominators mean "not present"
	ITNum, ITDen int
}

// PlanFor returns the Table I plan: MT+ITO -> 1/2,1/2; MT+OT+IT ->
// 1/2,1/8,3/8.
func PlanFor(nested bool) PartitionPlan {
	if nested {
		return PartitionPlan{MTNum: 1, MTDen: 2, OTNum: 1, OTDen: 8, ITNum: 3, ITDen: 8}
	}
	return PartitionPlan{MTNum: 1, MTDen: 2, ITNum: 1, ITDen: 2}
}

// LanePool is the per-cycle shared pool of issue slots. The scheduler/IQ and
// execution lanes are flexibly shared between the main thread and helper
// threads (Section IV-A); each cycle the pool is reset and consumers take
// slots in priority order.
type LanePool struct {
	Simple  int
	Mem     int
	Complex int
}

// Reset refills the pool for a new cycle. It takes the configuration by
// pointer: the cycle loop calls it every simulated cycle, and a Config value
// would be copied each time.
func (p *LanePool) Reset(cfg *Config) {
	p.Simple = cfg.SimpleALUs
	p.Mem = cfg.MemLanes
	p.Complex = cfg.ComplexALUs
}

// TakeSimple consumes a simple-ALU slot if available.
func (p *LanePool) TakeSimple() bool {
	if p.Simple > 0 {
		p.Simple--
		return true
	}
	return false
}

// TakeMem consumes a load/store slot if available.
func (p *LanePool) TakeMem() bool {
	if p.Mem > 0 {
		p.Mem--
		return true
	}
	return false
}

// TakeComplex consumes a complex-ALU slot if available.
func (p *LanePool) TakeComplex() bool {
	if p.Complex > 0 {
		p.Complex--
		return true
	}
	return false
}
