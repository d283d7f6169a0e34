package serve

import (
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phelps/internal/cpu"
	"phelps/internal/sim"
)

// faultOn returns a Server.faults hook that injects fi into every run of the
// (workload, config) cell it names, and into nothing else.
func faultOn(workload, config string, fi cpu.FaultInjection) func(string, string) *cpu.FaultInjection {
	return func(w, c string) *cpu.FaultInjection {
		if w != workload || c != config {
			return nil
		}
		f := fi
		return &f
	}
}

// TestFailingCellRunsOnce injects a panic into every run of a cell: each
// submission runs it exactly once, it fails with ErrPanic, and nothing is
// cached, so an identical resubmission runs it once more and fails the same
// way.
func TestFailingCellRunsOnce(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 2})
	var runs atomic.Int64
	inject := faultOn("guarded", sim.CfgBase, cpu.FaultInjection{PanicAtSeq: 1000})
	s.faults = func(w, c string) *cpu.FaultInjection {
		runs.Add(1)
		return inject(w, c)
	}
	req := JobRequest{Workloads: []string{"guarded"}, Configs: []string{sim.CfgBase}, Quick: true}
	for submission := int64(1); submission <= 2; submission++ {
		st, resp := postJob(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: %s", submission, resp.Status)
		}
		if fin := waitJob(t, ts, st.ID); fin.State != JobFailed {
			t.Fatalf("submission %d: job state = %s, want failed", submission, fin.State)
		}
		cell := jobResult(t, ts, st.ID).Cells[0]
		if cell.State != CellFailed || cell.Cached || !strings.Contains(cell.Error, sim.ErrPanic.Error()) {
			t.Errorf("submission %d: cell %s (cached %v) error %q, want a failed %q",
				submission, cell.State, cell.Cached, cell.Error, sim.ErrPanic)
		}
		if got := runs.Load(); got != submission {
			t.Errorf("after submission %d the cell ran %d times, want %d", submission, got, submission)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("results cache holds %d entries, want 0", n)
	}
}

// TestPermanentFailureFailsFast injects a deterministic corruption that the
// lockstep oracle catches: the cell fails with ErrCheck.
func TestPermanentFailureFailsFast(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 2})
	s.faults = faultOn("guarded", sim.CfgBase, cpu.FaultInjection{CorruptRdSeq: 1000})
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
	if cell := jobResult(t, ts, st.ID).Cells[0]; !strings.Contains(cell.Error, sim.ErrCheck.Error()) {
		t.Errorf("error = %q, want %q", cell.Error, sim.ErrCheck)
	}
}

// TestCellDeadline bounds each cell to a deadline no simulation can meet:
// the cell must fail with the deadline error, not resolve as canceled.
func TestCellDeadline(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 2, CellDeadline: time.Nanosecond})
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
}
