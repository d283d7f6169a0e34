package serve

import (
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"phelps/internal/cpu"
	"phelps/internal/sim"
)

// faultOn returns a Server.faults hook that injects fi into the first times
// attempts (0 = every attempt) of the (workload, config) cell it names, and
// into nothing else. With times 1, a transient fault strikes once and
// clears, the shape of a true transient.
func faultOn(workload, config string, fi cpu.FaultInjection, times int) func(string, string, int) *cpu.FaultInjection {
	return func(w, c string, attempt int) *cpu.FaultInjection {
		if w != workload || c != config || (times > 0 && attempt > times) {
			return nil
		}
		f := fi
		return &f
	}
}

// TestRetryRecoversTransient injects a panic into a cell's first attempt
// only: the retry policy must re-run it, succeed on attempt two, and surface
// the provenance — attempts, the first attempt's error, and the recovered
// counter.
func TestRetryRecoversTransient(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 2, Retry: RetryPolicy{MaxRetries: 2}})
	s.faults = faultOn("guarded", sim.CfgBase, cpu.FaultInjection{PanicAtSeq: 1000}, 1)
	st, resp := postJob(t, ts, JobRequest{
		Workloads: []string{"guarded"},
		Configs:   []string{sim.CfgBase},
		Quick:     true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("job state = %s, want done (retry should recover): %+v", fin.State, fin)
	}
	if fin.Retried != 1 {
		t.Errorf("retried_cells = %d, want 1", fin.Retried)
	}
	cell := jobResult(t, ts, st.ID).Cells[0]
	if cell.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", cell.Attempts)
	}
	if len(cell.RetryErrors) != 1 || !strings.Contains(cell.RetryErrors[0], "panic") {
		t.Errorf("retry_errors = %v, want one panic", cell.RetryErrors)
	}
	if got := s.retryRecovered.Load(); got != 1 {
		t.Errorf("serve.retry.recovered = %d, want 1", got)
	}
	if got := s.retryRetried.Load(); got != 1 {
		t.Errorf("serve.retry.retried = %d, want 1", got)
	}
}

// TestRecoveredCellIsCached: a cell whose first attempt panics runs as a
// flight like any other, so once its retry succeeds its result equals a
// clean daemon's, it lands in the results cache, and an identical
// resubmission is answered from the cache without executing anything.
func TestRecoveredCellIsCached(t *testing.T) {
	t.Parallel()
	req := JobRequest{Workloads: []string{"guarded"}, Configs: []string{sim.CfgBase}, Quick: true}
	_, clean := newTestServer(t, Config{Workers: 1})
	st, _ := postJob(t, clean, req)
	if fin := waitJob(t, clean, st.ID); fin.State != JobDone {
		t.Fatalf("clean job state = %s, want done", fin.State)
	}
	want := jobResult(t, clean, st.ID).Cells[0]

	s, ts := newTestServer(t, Config{Workers: 1, Retry: RetryPolicy{MaxRetries: 2}})
	s.faults = faultOn("guarded", sim.CfgBase, cpu.FaultInjection{PanicAtSeq: 1000}, 1)
	st, _ = postJob(t, ts, req)
	if fin := waitJob(t, ts, st.ID); fin.State != JobDone {
		t.Fatalf("faulted job state = %s, want done (retry should recover)", fin.State)
	}
	got := jobResult(t, ts, st.ID).Cells[0]
	if got.Attempts != 2 || got.Result == nil || !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("recovered cell: %d attempts, result %+v; want 2 attempts and the clean result %+v",
			got.Attempts, got.Result, want.Result)
	}

	// The pool counts a task once it returns, just after its cells resolve.
	for deadline := time.Now().Add(10 * time.Second); s.sched.Executed() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("serve.sched.executed = %d, want 1", s.sched.Executed())
		}
	}
	st2, _ := postJob(t, ts, req)
	if fin := waitJob(t, ts, st2.ID); fin.State != JobDone || fin.Cached != 1 {
		t.Errorf("resubmission: state %s with %d cells cached, want done with 1", fin.State, fin.Cached)
	}
	if got := s.sched.Executed(); got != 1 {
		t.Errorf("serve.sched.executed = %d after the resubmission, want 1", got)
	}
}

// TestRetryExhausted injects a panic into every attempt: the budget must be
// spent (1 + MaxRetries attempts), the cell must fail with the exhaustion
// wrapper, and the exhausted counter must fire.
func TestRetryExhausted(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 2, Retry: RetryPolicy{MaxRetries: 2}})
	s.faults = faultOn("guarded", sim.CfgBase, cpu.FaultInjection{PanicAtSeq: 1000}, 0)
	st, resp := postJob(t, ts, JobRequest{
		Workloads: []string{"guarded"},
		Configs:   []string{sim.CfgBase},
		Quick:     true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != JobFailed {
		t.Fatalf("job state = %s, want failed", fin.State)
	}
	cell := jobResult(t, ts, st.ID).Cells[0]
	if cell.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", cell.Attempts)
	}
	if !strings.Contains(cell.Error, "retry budget exhausted") {
		t.Errorf("error = %q, want exhaustion wrapper", cell.Error)
	}
	if got := s.retryExhausted.Load(); got != 1 {
		t.Errorf("serve.retry.exhausted = %d, want 1", got)
	}
}

// TestPermanentFailureFailsFast injects a deterministic corruption caught by
// the invariant checker: no retries, one attempt, permanent counter.
func TestPermanentFailureFailsFast(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 2, Retry: RetryPolicy{MaxRetries: 2}})
	s.faults = faultOn("guarded", sim.CfgBase, cpu.FaultInjection{CorruptRdSeq: 1000}, 0)
	st, resp := postJob(t, ts, JobRequest{
		Workloads: []string{"guarded"},
		Configs:   []string{sim.CfgBase},
		Quick:     true,
		Lockstep:  true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != JobFailed {
		t.Fatalf("job state = %s, want failed", fin.State)
	}
	cell := jobResult(t, ts, st.ID).Cells[0]
	if cell.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (deterministic failure must not retry)", cell.Attempts)
	}
	if len(cell.RetryErrors) != 0 {
		t.Errorf("retry_errors = %v, want none", cell.RetryErrors)
	}
	if got := s.retryPermanent.Load(); got == 0 {
		t.Error("serve.retry.permanent = 0, want >= 1")
	}
	if got := s.retryRetried.Load(); got != 0 {
		t.Errorf("serve.retry.retried = %d, want 0", got)
	}
}

// TestCellDeadline bounds each attempt to a deadline no simulation can meet:
// the cell must fail fast as permanent (a deterministic run that timed out
// once will time out every time), not burn the retry budget.
func TestCellDeadline(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{
		Workers: 2,
		Retry:   RetryPolicy{MaxRetries: 2, CellDeadline: time.Nanosecond},
	})
	st, resp := postJob(t, ts, JobRequest{Workloads: []string{"guarded"}, Configs: []string{sim.CfgBase}, Quick: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != JobFailed {
		t.Fatalf("job state = %s, want failed", fin.State)
	}
	cell := jobResult(t, ts, st.ID).Cells[0]
	if cell.State != CellFailed || !strings.Contains(cell.Error, "per-cell deadline") {
		t.Errorf("cell = %s error %q, want deadline failure", cell.State, cell.Error)
	}
	if cell.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (deadline is permanent)", cell.Attempts)
	}
	if got := s.retryPermanent.Load(); got != 1 {
		t.Errorf("serve.retry.permanent = %d, want 1", got)
	}
}

// TestBackoffFor pins the capped exponential schedule: 50 ms doubling per
// retry, capped at 2 s.
func TestBackoffFor(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		n    int
		want time.Duration
	}{
		{1, 50 * time.Millisecond},
		{2, 100 * time.Millisecond},
		{3, 200 * time.Millisecond},
		{4, 400 * time.Millisecond},
		{5, 800 * time.Millisecond},
		{6, 1600 * time.Millisecond},
		{7, 2 * time.Second}, // capped
		{40, 2 * time.Second},
	} {
		if got := backoffFor(tc.n); got != tc.want {
			t.Errorf("backoffFor(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestAdmissionColdStartRetryAfter pins the EWMA seed: a 429 issued before
// any cell has ever completed must still carry a nonzero, conservative
// Retry-After hint, and later observations blend normally.
func TestAdmissionColdStartRetryAfter(t *testing.T) {
	t.Parallel()
	a := NewAdmission(2, 1)
	if !a.TryAdmit(2) {
		t.Fatal("admit failed")
	}
	if ra := a.RetryAfter(1); ra < time.Second {
		t.Errorf("cold-start RetryAfter = %v, want >= 1s", ra)
	}
	// One slow observation raises the estimate above the seed.
	a.Observe(9 * time.Second)
	if ra := a.RetryAfter(1); ra <= time.Second {
		t.Errorf("post-observe RetryAfter = %v, want > 1s", ra)
	}
}

// TestColdStart429OverHTTP is the end-to-end version: the very first 429 the
// daemon ever sends carries a usable hint in both the header and the body.
func TestColdStart429OverHTTP(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	release := blockWorkers(s)
	defer release()
	if _, resp := postJob(t, ts, JobRequest{Workloads: []string{"guarded"}, Configs: []string{sim.CfgBase}, Quick: true}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job: %s", resp.Status)
	}
	_, resp := postJob(t, ts, JobRequest{Workloads: []string{"delinquent"}, Configs: []string{sim.CfgBase}, Quick: true})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("cold-start 429 Retry-After header = %q, want nonzero", ra)
	}
}
