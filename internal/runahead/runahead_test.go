package runahead

import (
	"bytes"
	"testing"

	"phelps/internal/core"
)

func testQueues(spec bool) (*brQueues, *Stats, *uint64) {
	cfg := DefaultConfig()
	cfg.Speculative = spec
	stats := &Stats{}
	now := new(uint64)
	// Queue 0 is a top-level chain; queue 1 is guarded by queue 0 in the
	// taken direction.
	q := newBRQueues(&cfg, stats, 2, []int{-1, 0}, []bool{false, true}, func() uint64 { return *now })
	return q, stats, now
}

func TestBRQueuesTopLevelFlow(t *testing.T) {
	q, _, _ := testQueues(true)
	for i := 0; i < 5; i++ {
		q.Deposit(0, i%2 == 0)
		q.AdvanceTail()
	}
	for i := 0; i < 5; i++ {
		out, ok := q.consume(0, uint64(i), 0)
		if !ok {
			t.Fatalf("iteration %d not available", i)
		}
		if out != (i%2 == 0) {
			t.Fatalf("iteration %d wrong outcome", i)
		}
	}
}

func TestBRQueuesStaleDiscard(t *testing.T) {
	q, st, _ := testQueues(true)
	for i := 0; i < 4; i++ {
		q.Deposit(0, true)
		q.AdvanceTail()
	}
	// Main thread skipped ahead to iteration 3: stale entries discarded.
	out, ok := q.consume(0, 3, 0)
	if !ok || !out {
		t.Fatalf("iteration 3: %v %v", out, ok)
	}
	if st.QueueStale != 3 {
		t.Errorf("stale = %d, want 3", st.QueueStale)
	}
}

func TestBRQueuesGuardedSpeculativeTriggering(t *testing.T) {
	q, st, _ := testQueues(true)
	// Train the internal bimodal toward "taken" for the parent chain.
	for i := 0; i < 8; i++ {
		q.Deposit(0, true) // parent taken: child (guardDir=true) enabled
		q.Deposit(1, i%2 == 0)
		q.AdvanceTail()
	}
	if st.Rollbacks != 0 {
		t.Errorf("unexpected rollbacks: %d", st.Rollbacks)
	}
	// Now the parent goes not-taken: the bimodal still says taken ->
	// wrong speculative trigger -> rollback, no enqueue for the child.
	childLen := q.entries[1].len()
	q.Deposit(0, false)
	q.Deposit(1, true)
	q.AdvanceTail()
	if st.Rollbacks != 1 {
		t.Errorf("rollbacks = %d, want 1", st.Rollbacks)
	}
	if q.entries[1].len() != childLen {
		t.Error("wrongly-triggered child outcome was enqueued")
	}
}

func TestBRQueuesLateTrigger(t *testing.T) {
	q, st, _ := testQueues(true)
	// Train bimodal toward not-taken, then flip: child should be late.
	for i := 0; i < 8; i++ {
		q.Deposit(0, false)
		q.Deposit(1, true) // child deposit filtered out (parent skip)
		q.AdvanceTail()
	}
	q.Deposit(0, true) // parent now enables the child; bimodal said skip
	q.Deposit(1, true)
	q.AdvanceTail()
	if st.LateTriggers == 0 {
		t.Error("expected a late trigger")
	}
}

func TestBRQueuesNonSpeculativeSerialization(t *testing.T) {
	q, _, now := testQueues(false)
	*now = 100
	q.Deposit(0, true)
	q.Deposit(1, true)
	q.AdvanceTail()
	// The child's outcome is correct but only available after the
	// serialization delay.
	if _, ok := q.consume(1, 0, 100); ok {
		t.Error("child available immediately under non-speculative triggering")
	}
	if out, ok := q.consume(1, 0, 100+DefaultConfig().SerializeDelay); !ok || !out {
		t.Errorf("child after delay: %v %v", out, ok)
	}
}

func TestBRQueuesFull(t *testing.T) {
	q, _, _ := testQueues(true)
	for i := 0; i < DefaultConfig().QueueDepth; i++ {
		if q.Full() {
			t.Fatalf("full at %d", i)
		}
		q.Deposit(0, true)
		q.AdvanceTail()
	}
	if !q.Full() {
		t.Error("queue should be full")
	}
}

func TestDefaultConfigMatchesPaperSetup(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Construction.IncludeStores {
		t.Error("BR must exclude stores (Section VI)")
	}
	if !cfg.Speculative || !cfg.StaticPartition {
		t.Error("default BR is the speculative, statically-partitioned configuration")
	}
	if cfg.Construction.MaxHTInsts != core.DefaultConstructionConfig().MaxHTInsts {
		t.Error("BR shares the chain-size limits with the construction machinery")
	}
}

// TestBRQueuesResetRestoresBimodal: a pooled queue set's reset, which
// clears only the counters Deposit trains, leaves the bimodal table and its
// stats byte-identical to a freshly built one.
func TestBRQueuesResetRestoresBimodal(t *testing.T) {
	q, _, _ := testQueues(true)
	fresh := q.bim.AppendState(nil)
	for i := 0; i < 8; i++ {
		q.Deposit(0, true)
		q.Deposit(1, false)
		q.AdvanceTail()
	}
	q.bim.PredictAndTrain(depositPC(0), true) // moves the stats too
	if bytes.Equal(q.bim.AppendState(nil), fresh) {
		t.Fatal("deposits did not train the bimodal table")
	}
	q.reset()
	if !bytes.Equal(q.bim.AppendState(nil), fresh) {
		t.Error("reset left bimodal state behind")
	}
}
