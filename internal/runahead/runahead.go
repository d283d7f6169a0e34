// Package runahead implements the Branch Runahead comparison baseline
// (Pruett & Patt, MICRO 2021), core-only version, as configured in the
// paper's Section VI:
//
//   - Per delinquent branch, a dependence chain (backward slice) is
//     constructed; chains contain no branches besides their terminal branch
//     and, per the paper's experimental setup, no stores ("we excluded
//     stores from BR to help it").
//   - Chains execute in a statically partitioned half of the core for the
//     full run once constructed ("the main thread getting only half frontend
//     width, LQ, and PRF for the full run").
//   - Child chains are triggered speculatively from a bimodal prediction of
//     the parent chain's direction (BR-spec); an incorrect trigger squashes
//     the chain group and the correct child is triggered late. BR-non-spec
//     waits for the parent's resolution, serializing dependent chains.
//   - Predictions stream to the main thread through per-branch queues whose
//     entries are tagged with the dynamic iteration that produced them.
//
// The chain partition is modeled as one execution engine running the union
// of the chain slices (the same dataflow work BR's chains perform), with
// triggering, rollback, and serialization modeled at the queue boundary.
// The BR-12w variant gives the main thread full resources (Fig. 12a).
package runahead

import (
	"phelps/internal/bpred"
	"phelps/internal/core"
)

// Config parameterizes the Branch Runahead baseline.
type Config struct {
	EpochLen         uint64
	DBTSize          int
	DBTMaxSize       int
	ThresholdDivisor uint64

	QueueDepth int // per-branch prediction FIFO depth

	// Speculative selects BR-spec (bimodal chain triggering) vs BR-non-spec
	// (children wait for parent resolution).
	Speculative bool

	// StaticPartition halves the main thread for the full run once chains
	// exist (the paper's BR configuration). False models BR-12w, where the
	// main thread keeps baseline resources.
	StaticPartition bool

	// RollbackPenalty is the chain-group repair cost after a wrong
	// speculative trigger (squash + retrigger, Fig. 10b).
	RollbackPenalty uint64

	// SerializeDelay is the extra availability delay of guarded-chain
	// outcomes under non-speculative triggering.
	SerializeDelay uint64

	Construction core.ConstructionConfig
}

// DefaultConfig returns the configuration used in the paper's comparison.
func DefaultConfig() Config {
	cc := core.DefaultConstructionConfig()
	cc.IncludeStores = false // stores excluded from BR (Section VI)
	return Config{
		EpochLen:         4_000_000,
		DBTSize:          256,
		DBTMaxSize:       32,
		ThresholdDivisor: 2000,
		QueueDepth:       32,
		Speculative:      true,
		StaticPartition:  true,
		RollbackPenalty:  24,
		SerializeDelay:   20,
		Construction:     cc,
	}
}

// Stats counts Branch Runahead activity.
type Stats struct {
	RejectedLoops    map[uint64]core.RejectReason
	ChainsBuilt      uint64
	Triggers         uint64
	ChainRetired     uint64
	Rollbacks        uint64
	LateTriggers     uint64
	QueueConsumed    uint64
	QueueStale       uint64
	QueueUnavailable uint64
}

// brQueues is the DepositSink for the chain engine: per-branch FIFOs whose
// entries are tagged with the producing iteration, plus the speculative
// triggering model for guarded chains.
type brQueues struct {
	cfg   *Config
	stats *Stats
	now   func() uint64

	nQueues  int
	guards   []int  // queue -> guard queue (-1 = top-level chain)
	guardDir []bool // enabling direction of the guard
	bim      *bpred.Bimodal

	entries  []brFIFO // per queue
	tailIter uint64

	// per-iteration guard state (reset at AdvanceTail)
	actual    []bool // guard outcomes deposited this iteration
	hasActual []bool
	spec      []bool // bimodal decision made for this iteration

	engine *core.Engine // for rollback stalls (set after engine creation)
	depth  int
}

type brEntry struct {
	iter        uint64
	outcome     bool
	availableAt uint64
}

// brFIFO is one per-branch prediction queue: a fixed ring of depth entries.
// A popped slot's capacity is reused, so steady-state deposit/consume
// traffic allocates nothing (the previous re-sliced FIFO lost its backing
// capacity on every pop and reallocated on almost every deposit).
type brFIFO struct {
	buf  []brEntry
	head int
	n    int
}

func (f *brFIFO) len() int        { return f.n }
func (f *brFIFO) front() *brEntry { return &f.buf[f.head] }

func (f *brFIFO) pop() {
	f.head = (f.head + 1) % len(f.buf)
	f.n--
}

func (f *brFIFO) push(e brEntry) {
	f.buf[(f.head+f.n)%len(f.buf)] = e
	f.n++
}

func (f *brFIFO) reset() { f.head, f.n = 0, 0 }

func newBRQueues(cfg *Config, stats *Stats, n int, guards []int, guardDir []bool, now func() uint64) *brQueues {
	b := &brQueues{
		cfg: cfg, stats: stats, now: now,
		nQueues: n, guards: guards, guardDir: guardDir,
		bim:     bpred.NewBimodal(12),
		entries: make([]brFIFO, n),
		actual:  make([]bool, n), hasActual: make([]bool, n),
		spec:  make([]bool, n),
		depth: cfg.QueueDepth,
	}
	for i := range b.entries {
		b.entries[i].buf = make([]brEntry, cfg.QueueDepth)
	}
	return b
}

// reset returns pooled queues to their freshly-built state for a new
// trigger, keeping every ring and table backing allocation. Deposit trains
// the bimodal table only at depositPC(qi), so those counters are all there
// is to reset.
func (b *brQueues) reset() {
	b.bim.Stats = bpred.Stats{}
	b.tailIter = 0
	for i := range b.entries {
		b.bim.ResetPC(depositPC(i))
		b.entries[i].reset()
		b.actual[i] = false
		b.hasActual[i] = false
		b.spec[i] = false
	}
	b.engine = nil
}

// Full reports backpressure: any per-branch FIFO at capacity.
func (b *brQueues) Full() bool {
	for i := range b.entries {
		if b.entries[i].len() >= b.depth {
			return true
		}
	}
	return false
}

// Deposit receives a chain outcome for the current iteration. Guarded
// chains are filtered through the speculative-triggering model.
func (b *brQueues) Deposit(qi int, outcome bool) {
	now := b.now()
	avail := now

	if g := b.guards[qi]; g >= 0 {
		// The guard's outcome for this iteration must have been produced
		// earlier in program order (chains deposit in slice order).
		if !b.hasActual[g] {
			// Guard unresolved (should not happen: engine is in-order at
			// retire) — treat as late trigger.
			b.stats.LateTriggers++
			return
		}
		enabled := b.actual[g] == b.guardDir[qi]
		if b.cfg.Speculative {
			// The trigger decision was made from the bimodal prediction of
			// the parent (captured when the parent deposited).
			specEnabled := b.spec[g] == b.guardDir[qi]
			switch {
			case specEnabled && !enabled:
				// Wrong trigger: chain group squash and rollback (Fig. 10b).
				b.stats.Rollbacks++
				if b.engine != nil {
					b.engine.Stall(now, b.cfg.RollbackPenalty)
				}
				return
			case !specEnabled && enabled:
				// Late trigger: the correct child starts after the parent
				// resolves; its outcome arrives too late to be consumed.
				b.stats.LateTriggers++
				return
			case !specEnabled && !enabled:
				return // correctly not triggered
			}
		} else {
			if !enabled {
				return
			}
			// Non-speculative: child waits for parent resolution.
			avail = now + b.cfg.SerializeDelay
		}
	}

	// Record this chain's own outcome for its children, with the bimodal
	// decision a speculative trigger would have used.
	b.spec[qi] = b.bim.Predict(depositPC(qi))
	b.bim.Train(depositPC(qi), outcome)
	b.actual[qi] = outcome
	b.hasActual[qi] = true

	if b.entries[qi].len() < b.depth {
		b.entries[qi].push(brEntry{iter: b.tailIter, outcome: outcome, availableAt: avail})
	}
}

// depositPC derives a stable bimodal index per queue.
func depositPC(qi int) uint64 { return uint64(qi+1) << 4 }

// AdvanceTail starts the next chain iteration.
func (b *brQueues) AdvanceTail() {
	b.tailIter++
	for i := range b.hasActual {
		b.hasActual[i] = false
	}
}

// consume pops the entry for the main thread's current iteration of branch
// queue qi; stale entries are discarded.
func (b *brQueues) consume(qi int, mtIter uint64, now uint64) (bool, bool) {
	q := &b.entries[qi]
	for q.len() > 0 && q.front().iter < mtIter {
		q.pop()
		b.stats.QueueStale++
	}
	if q.len() == 0 || q.front().iter != mtIter {
		b.stats.QueueUnavailable++
		return false, false
	}
	if q.front().availableAt > now {
		b.stats.QueueUnavailable++
		return false, false
	}
	out := q.front().outcome
	q.pop()
	b.stats.QueueConsumed++
	return out, true
}
