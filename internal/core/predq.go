package core

// This file implements Section IV-B: iteration-driven per-branch prediction
// queues managed in lockstep by loop iteration (Fig. 4). Each delinquent
// branch owns a queue; columns are loop iterations. The helper thread
// deposits unconditionally every iteration; the main thread's fetch consumes
// or ignores entries according to the guarding branches it actually follows.

// QueueSet is one {head, spec_head, tail} pointer set with its queues. One
// set exists per active helper thread (two sets for a nested loop).
//
// Pointers are monotonically increasing iteration numbers; the physical
// column is iteration % depth. Invariants: head <= specHead is NOT required
// (specHead rolls back on recovery); head <= tail <= head+depth.
type QueueSet struct {
	depth    int
	nQueues  int
	pcs      []uint64 // queue -> delinquent branch PC (tag)
	byPC     map[uint64]int
	outcome  [][]bool // [queue][column]
	valid    [][]bool
	head     uint64 // freed up to here (MT retire of loop branch)
	specHead uint64 // MT fetch iteration
	tail     uint64 // HT deposit iteration

	// Stats
	Consumed uint64
	Untimely uint64 // MT needed an entry the HT had not yet deposited
}

// NewQueueSet builds a pointer set with queues for the given branch PCs.
func NewQueueSet(pcs []uint64, depth int) *QueueSet {
	q := &QueueSet{
		depth:   depth,
		nQueues: len(pcs),
		pcs:     append([]uint64(nil), pcs...),
		byPC:    make(map[uint64]int, len(pcs)),
	}
	q.outcome = make([][]bool, len(pcs))
	q.valid = make([][]bool, len(pcs))
	for i, pc := range pcs {
		q.byPC[pc] = i
		q.outcome[i] = make([]bool, depth)
		q.valid[i] = make([]bool, depth)
	}
	return q
}

// QueueFor returns the queue index for a branch PC, or -1.
func (q *QueueSet) QueueFor(pc uint64) int {
	if i, ok := q.byPC[pc]; ok {
		return i
	}
	return -1
}

// Full reports whether the helper thread must stall before advancing tail.
// One column of headroom is reserved so that after advancing, deposits at
// the new tail can never alias the still-live oldest column (standard ring
// discipline). A lagging helper thread (tail behind head) is never full.
func (q *QueueSet) Full() bool {
	return int64(q.tail)-int64(q.head) >= int64(q.depth)-1
}

// Deposit writes the helper thread's pre-executed outcome for queue qi in
// the current tail iteration. Unconditional: even outcomes of guarded
// branches in skipped iterations are deposited (Fig. 4's parenthesized
// entries).
func (q *QueueSet) Deposit(qi int, outcome bool) {
	if q.tail < q.head {
		// The main thread already retired past this iteration: the deposit
		// is dead on arrival. The column was re-assigned to a younger
		// iteration, so it must not be written.
		return
	}
	col := q.tail % uint64(q.depth)
	q.outcome[qi][col] = outcome
	q.valid[qi][col] = true
}

// AdvanceTail moves the helper thread to the next iteration (at its loop
// branch retire). Caller must check Full() first. Iteration numbering is
// absolute: even a lagging helper thread advances through the iterations it
// produced too late.
func (q *QueueSet) AdvanceTail() { q.tail++ }

// Consume returns the pre-executed outcome for branch pc at the main
// thread's current spec_head iteration. ok=false if the queue does not cover
// pc or the helper thread has not deposited that iteration yet (untimely).
func (q *QueueSet) Consume(pc uint64) (outcome, ok bool) {
	qi := q.QueueFor(pc)
	if qi < 0 {
		return false, false
	}
	if q.specHead >= q.tail {
		q.Untimely++
		return false, false
	}
	col := q.specHead % uint64(q.depth)
	if !q.valid[qi][col] {
		q.Untimely++
		return false, false
	}
	q.Consumed++
	return q.outcome[qi][col], true
}

// SpecHead returns the current spec_head iteration (for checkpointing).
func (q *QueueSet) SpecHead() uint64 { return q.specHead }

// Tail returns the helper thread's deposit iteration.
func (q *QueueSet) Tail() uint64 { return q.tail }

// AdvanceSpecHead moves the main thread's consumption point to the next
// iteration (at its fetch of the loop branch).
func (q *QueueSet) AdvanceSpecHead() { q.specHead++ }

// RollbackSpecHead restores spec_head to a checkpointed value (main-thread
// misprediction or load-violation recovery). Pre-executed outcomes from the
// rolled-back iterations are replayed, not regenerated (Section IV-B).
func (q *QueueSet) RollbackSpecHead(to uint64) {
	if to < q.head {
		to = q.head
	}
	q.specHead = to
}

// AdvanceHead frees the oldest column (main-thread retire of the loop
// branch). The freed column is re-assigned to iteration head-1+depth, so its
// stale contents are invalidated here. The tail is never touched: a lagging
// helper thread keeps its own absolute iteration count.
func (q *QueueSet) AdvanceHead() {
	col := q.head % uint64(q.depth)
	for i := range q.valid {
		q.valid[i][col] = false
	}
	q.head++
	if q.specHead < q.head {
		q.specHead = q.head
	}
}

// Reset returns the set to its freshly-constructed state, keeping the queue
// backing arrays and PC routing (pooled reuse across activations of the same
// HTC row: the queue geometry depends only on the helper program).
func (q *QueueSet) Reset() {
	q.head, q.specHead, q.tail = 0, 0, 0
	q.Consumed, q.Untimely = 0, 0
	for i := range q.valid {
		vi := q.valid[i]
		for j := range vi {
			vi[j] = false
		}
	}
}

// Lag returns how many iterations the helper thread is ahead of the main
// thread's consumption point.
func (q *QueueSet) Lag() int64 { return int64(q.tail) - int64(q.specHead) }
