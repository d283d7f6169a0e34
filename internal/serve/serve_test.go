package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"phelps/internal/cpu"
	"phelps/internal/fsio"
	"phelps/internal/obs"
	"phelps/internal/sim"
)

// newTestServer starts a daemon plus an httptest front end; both are torn
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CrashDir == "" {
		cfg.CrashDir = t.TempDir()
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+API+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode job status: %v", err)
		}
	}
	return st, resp
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// waitJob polls a job until it leaves the running state.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st JobStatus
		resp := getJSON(t, ts.URL+API+"/jobs/"+id, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: %s", id, resp.Status)
		}
		if st.State != JobRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 120s: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func jobResult(t *testing.T, ts *httptest.Server, id string) JobResult {
	t.Helper()
	var jr JobResult
	if resp := getJSON(t, ts.URL+API+"/jobs/"+id+"/result", &jr); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result %s: %s", id, resp.Status)
	}
	return jr
}

// deleteJob cancels a job over HTTP and returns the status DELETE reports.
func deleteJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+API+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// blockWorkers parks every pool worker on a channel, so admitted cells
// stay pending deterministically. The returned release function unparks them.
func blockWorkers(s *Server) (release func()) {
	ch := make(chan struct{})
	var started sync.WaitGroup
	n := s.sched.Workers()
	started.Add(n)
	blockers := make([]func(), n)
	for i := range blockers {
		blockers[i] = func() {
			started.Done()
			<-ch
		}
	}
	_ = s.sched.Submit(blockers...)
	started.Wait() // every worker is provably parked
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// TestJobMatchesDirectRun submits a small quick job over HTTP and requires
// every cell to be bit-identical to a direct sim.RunMatrixOpt sweep of the
// same cells: the daemon must be a transport, never a perturbation.
func TestJobMatchesDirectRun(t *testing.T) {
	t.Parallel()
	workloads := []string{"guarded", "delinquent"}
	configs := []string{sim.CfgBase, sim.CfgPhelps}

	var specs []sim.Spec
	for _, w := range workloads {
		sp, err := sim.SpecByName(w, true)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	want, err := sim.RunMatrixOpt(specs, configs, sim.MatrixOptions{CrashDir: t.TempDir()})
	if err != nil {
		t.Fatalf("direct matrix: %v", err)
	}

	_, ts := newTestServer(t, Config{Workers: 2})
	st, resp := postJob(t, ts, JobRequest{Workloads: workloads, Configs: configs, Quick: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if got := resp.Header.Get("Location"); got != API+"/jobs/"+st.ID {
		t.Errorf("Location = %q", got)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("job state = %s, want done: %+v", fin.State, fin)
	}
	jr := jobResult(t, ts, st.ID)
	if len(jr.Cells) != len(workloads)*len(configs) {
		t.Fatalf("got %d cells, want %d", len(jr.Cells), len(workloads)*len(configs))
	}
	for _, c := range jr.Cells {
		w := want[c.Workload][c.Config]
		if c.Result == nil {
			t.Fatalf("%s/%s: no result", c.Workload, c.Config)
		}
		if c.Result.Cycles != w.Cycles || c.Result.Retired != w.Retired || c.Result.Mispredicts != w.Mispredicts {
			t.Errorf("%s/%s: daemon (cyc %d ret %d misp %d) != direct (cyc %d ret %d misp %d)",
				c.Workload, c.Config, c.Result.Cycles, c.Result.Retired, c.Result.Mispredicts,
				w.Cycles, w.Retired, w.Mispredicts)
		}
	}
}

// TestFullQuickMatrixOverHTTP is the acceptance sweep: the complete 116-cell
// quick matrix (gap × 7 configs + spec × 6 configs) through the daemon,
// bit-identical to the direct library sweep, and a second identical
// submission answered ≥90% from the results cache without re-simulating.
func TestFullQuickMatrixOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("116-cell matrix skipped in -short mode")
	}
	t.Parallel()

	type suite struct {
		specs   []sim.Spec
		configs []string
	}
	suites := []suite{
		{sim.GapSpecs(true), []string{sim.CfgBase, sim.CfgPerfect, sim.CfgPhelps, sim.CfgPhelpsNoStore, sim.CfgBR, sim.CfgBR12w, sim.CfgHalf}},
		{sim.SpecCPUSpecs(true), []string{sim.CfgBase, sim.CfgPerfect, sim.CfgPhelps, sim.CfgBR, sim.CfgBR12w, sim.CfgHalf}},
	}

	s, ts := newTestServer(t, Config{})
	total := 0
	for si, su := range suites {
		want, err := sim.RunMatrixOpt(su.specs, su.configs, sim.MatrixOptions{CrashDir: t.TempDir()})
		if err != nil {
			t.Fatalf("direct matrix: %v", err)
		}
		names := make([]string, len(su.specs))
		for i, sp := range su.specs {
			names[i] = sp.Name
		}
		req := JobRequest{Workloads: names, Configs: su.configs, Quick: true}
		st, resp := postJob(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("suite %d submit: %s", si, resp.Status)
		}
		fin := waitJob(t, ts, st.ID)
		if fin.State != JobDone {
			t.Fatalf("suite %d state = %s", si, fin.State)
		}
		total += fin.Total
		for _, c := range jobResult(t, ts, st.ID).Cells {
			w := want[c.Workload][c.Config]
			if c.Result == nil || c.Result.Cycles != w.Cycles || c.Result.Retired != w.Retired {
				t.Errorf("suite %d %s/%s not bit-identical to direct run", si, c.Workload, c.Config)
			}
		}

		// Identical resubmission: everything warm, nothing re-simulated.
		executedBefore := s.sched.Executed()
		st2, resp2 := postJob(t, ts, req)
		if resp2.StatusCode != http.StatusAccepted {
			t.Fatalf("suite %d resubmit: %s", si, resp2.Status)
		}
		fin2 := waitJob(t, ts, st2.ID)
		if fin2.State != JobDone {
			t.Fatalf("suite %d resubmit state = %s", si, fin2.State)
		}
		if frac := float64(fin2.Cached) / float64(fin2.Total); frac < 0.9 {
			t.Errorf("suite %d resubmit only %.0f%% cached (want >= 90%%)", si, frac*100)
		}
		if got := s.sched.Executed(); got != executedBefore {
			t.Errorf("suite %d resubmit re-simulated: executed %d -> %d", si, executedBefore, got)
		}
	}
	if total != 116 {
		t.Errorf("quick matrix has %d cells, want 116 (suite drift — update the acceptance sweep)", total)
	}
}

// TestFaultContainment injects a panic into one cell of a job: that cell
// alone fails (ErrPanic), its siblings complete, and the daemon keeps
// serving jobs afterwards.
func TestFaultContainment(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 2})
	s.faults = faultOn("guarded", sim.CfgBase, cpu.FaultInjection{PanicAtSeq: 1000})
	st, resp := postJob(t, ts, JobRequest{
		Workloads: []string{"guarded", "delinquent"},
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
	for _, c := range fin.Cells {
		switch c.Workload {
		case "guarded":
			if c.State != CellFailed || !strings.Contains(c.Error, "panic") {
				t.Errorf("faulted cell: state %s, error %q", c.State, c.Error)
			}
		default:
			if c.State != CellDone {
				t.Errorf("innocent cell %s: state %s, want done", c.Workload, c.State)
			}
		}
	}

	// The daemon survived: the next job runs normally.
	st2, _ := postJob(t, ts, JobRequest{Workloads: []string{"delinquent"}, Configs: []string{sim.CfgBase}, Quick: true})
	if fin2 := waitJob(t, ts, st2.ID); fin2.State != JobDone {
		t.Fatalf("post-fault job state = %s, want done", fin2.State)
	}
}

// TestQueueOverflow fills the admission queue (workers parked, slots held by
// pending cells) and requires a 429 with a Retry-After estimate; capacity
// freed by cancellation admits the next job again.
func TestQueueOverflow(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	release := blockWorkers(s)
	defer release()

	st, resp := postJob(t, ts, JobRequest{Workloads: []string{"guarded", "delinquent"}, Configs: []string{sim.CfgBase}, Quick: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job: %s", resp.Status)
	}

	_, resp2 := postJob(t, ts, JobRequest{Workloads: []string{"nested"}, Configs: []string{sim.CfgBase}, Quick: true})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow job: %s, want 429", resp2.Status)
	}
	if ra := resp2.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 without a usable Retry-After header (%q)", ra)
	}

	// A job too big for the whole queue is a permanent 400, not a 429.
	_, resp3 := postJob(t, ts, JobRequest{Workloads: []string{"guarded", "nested", "delinquent"}, Configs: []string{sim.CfgBase}, Quick: true})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized job: %s, want 400", resp3.Status)
	}

	// Canceling the first job frees its slots; admission recovers.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+API+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if d := s.adm.Depth(); d != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", d)
	}
	_, resp4 := postJob(t, ts, JobRequest{Workloads: []string{"nested"}, Configs: []string{sim.CfgBase}, Quick: true})
	if resp4.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel job: %s, want 202", resp4.Status)
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

// TestCancel cancels a job whose cells are still pending: the job reports
// canceled immediately, every cell resolves canceled, and the worker pool
// never runs them.
func TestCancel(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 1})
	release := blockWorkers(s)
	defer release()

	st, _ := postJob(t, ts, JobRequest{Workloads: []string{"guarded", "delinquent"}, Configs: []string{sim.CfgBase, sim.CfgPhelps}, Quick: true})
	fin := deleteJob(t, ts, st.ID)
	if fin.State != JobCanceled {
		t.Fatalf("state after DELETE = %s, want canceled", fin.State)
	}
	for _, c := range fin.Cells {
		if c.State != CellCanceled {
			t.Errorf("cell %s/%s state = %s, want canceled", c.Workload, c.Config, c.State)
		}
	}
	release()

	j, ok := s.store.Get(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("canceled job never finished resolving")
	}
}

// TestCancelRacingSubmit deletes each job by its predicted ID the moment the
// store returns it, while Submit is still running. A job is published only
// once its cells are scheduled, so Cancel always finds each cell's flight
// (under -race, a read of Cell.fl racing the write in joinFlight fails the
// test) and drops it, and no flight is left running for canceled cells.
func TestCancelRacingSubmit(t *testing.T) {
	t.Parallel()
	s, _ := newTestServer(t, Config{Workers: 1})
	release := blockWorkers(s)
	defer release()
	req := JobRequest{Workloads: []string{"guarded", "delinquent"}, Configs: []string{sim.CfgBase, sim.CfgPhelps}, Quick: true}
	for i := 1; i <= 20; i++ {
		id := fmt.Sprintf("j-%06d", i)
		canceled := make(chan bool, 1)
		go func() {
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				if j, ok := s.store.Get(id); ok {
					canceled <- s.Cancel(j)
					return
				}
				runtime.Gosched()
			}
			canceled <- false
		}()
		job, aerr := s.Submit(req)
		if aerr != nil || job.ID != id {
			t.Fatalf("submit %d: job %v, error %v; want job %s", i, job, aerr, id)
		}
		if !<-canceled {
			t.Fatalf("job %s was never canceled", id)
		}
		for _, c := range job.Status().Cells {
			if c.State != CellCanceled {
				t.Errorf("job %s cell %s/%s: state %s, want canceled", id, c.Workload, c.Config, c.State)
			}
		}
		s.flightMu.Lock()
		left := len(s.flights)
		s.flightMu.Unlock()
		if left != 0 {
			t.Fatalf("job %s: %d flights left for canceled cells, want 0", id, left)
		}
	}
	if d := s.adm.Depth(); d != 0 {
		t.Errorf("admission depth %d after every job was canceled, want 0", d)
	}
}

// TestFinishedJobReleasesContexts: once a job finishes, the contexts of the
// flights its cells ran on are done, so the daemon's base context keeps no
// child for it, and neither its cells nor the results cache keep a flight or
// a result in memory. Two identical jobs share each flight; their cells,
// results and journal records are those of any finished job, and a later
// DELETE marks a finished job canceled without touching its cells.
func TestFinishedJobReleasesContexts(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, JournalDir: dir, CachePath: filepath.Join(dir, "results.cache")})
	release := blockWorkers(s)
	req := JobRequest{Workloads: []string{"guarded"}, Configs: []string{sim.CfgBase, sim.CfgPhelps}, Quick: true}
	st1, _ := postJob(t, ts, req)
	st2, _ := postJob(t, ts, req)
	// Each cell has joined its flight; the parked workers have run none.
	var jobs []*Job
	var flights [][]*flight
	for _, id := range []string{st1.ID, st2.ID} {
		j, _ := s.store.Get(id)
		jobs = append(jobs, j)
		fls := make([]*flight, len(j.Cells))
		for i, c := range j.Cells {
			fls[i] = c.fl
		}
		flights = append(flights, fls)
	}
	release()
	for _, id := range []string{st1.ID, st2.ID} {
		if fin := waitJob(t, ts, id); fin.State != JobDone || fin.Done != 2 {
			t.Fatalf("job %s: state %s with %d cells done, want done with 2", id, fin.State, fin.Done)
		}
	}
	// A flight's context is released just after all of its cells have
	// resolved.
	wait, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	released := func(ctx context.Context) bool {
		select {
		case <-ctx.Done():
			return errors.Is(context.Cause(ctx), errFinished)
		case <-wait.Done():
			return false
		}
	}
	for ji, j := range jobs {
		for i, c := range j.Cells {
			fl := flights[ji][i]
			if fl == nil || !released(fl.ctx) {
				t.Errorf("job %s cell %d: flight context not released", j.ID, i)
			}
			if fl != flights[0][i] {
				t.Errorf("job %s cell %d ran on its own flight, want the first job's", j.ID, i)
			}
			c.mu.Lock()
			held := c.fl
			c.mu.Unlock()
			if held != nil {
				t.Errorf("job %s cell %d: resolved cell still holds its flight", j.ID, i)
			}
		}
	}
	if n, r := s.cache.Len(), s.cache.Resident(); n != 2 || r != 0 {
		t.Errorf("results cache holds %d entries, %d of them resident; want 2, none resident", n, r)
	}
	r1, r2 := jobResult(t, ts, st1.ID), jobResult(t, ts, st2.ID)
	for i := range r1.Cells {
		a, b := r1.Cells[i], r2.Cells[i]
		if a.State != CellDone || a.Result == nil || b.Result == nil || !reflect.DeepEqual(a.Result, b.Result) {
			t.Errorf("cell %d: %s, results differ or missing", i, a.State)
		}
	}
	// Two accepts, a done record for each of the four cells, and two
	// job-done records.
	const records = 2 + 4 + 2
	if n := s.journal.Appends(); n != records {
		t.Errorf("journal appends = %d, want %d", n, records)
	}

	del := deleteJob(t, ts, st1.ID)
	if del.State != JobCanceled || del.Done != 2 || s.jobsCanceled.Load() != 1 || s.cellsCanceled.Load() != 0 {
		t.Errorf("DELETE of a finished job: state %s, %d done, %d jobs and %d cells canceled; want canceled, 2, 1, 0",
			del.State, del.Done, s.jobsCanceled.Load(), s.cellsCanceled.Load())
	}
	if n := s.journal.Appends(); n != records {
		t.Errorf("journal appends after DELETE = %d, want %d", n, records)
	}
}

// TestRottenResultRunsCold: a result whose record reads back from the log
// with a flipped byte is never served. The cell reports the error, the load
// is counted and the key leaves the results cache, so the next submission
// runs the cell cold and serves a clean result.
func TestRottenResultRunsCold(t *testing.T) {
	t.Parallel()
	ffs := &fsio.FaultFS{}
	s, ts := newTestServer(t, Config{Workers: 2, FS: ffs, CachePath: filepath.Join(t.TempDir(), "results.cache")})
	req := JobRequest{Workloads: []string{"guarded"}, Configs: []string{sim.CfgBase, sim.CfgPhelps}, Quick: true}
	st, _ := postJob(t, ts, req)
	if fin := waitJob(t, ts, st.ID); fin.State != JobDone {
		t.Fatalf("job state = %s, want done", fin.State)
	}
	ffs.BitRot(true)
	rotten := jobResult(t, ts, st.ID)
	ffs.BitRot(false)
	for _, c := range rotten.Cells {
		if c.State != CellDone || c.Result != nil || !strings.Contains(c.Error, "result unavailable") {
			t.Errorf("%s/%s from a rotten read: state %s, result %v, error %q", c.Workload, c.Config, c.State, c.Result != nil, c.Error)
		}
	}
	var snap obs.Snapshot
	getJSON(t, ts.URL+API+"/obs", &snap)
	if n := snap.Counters["serve.cache.load_errors"]; n != 2 || s.cache.Len() != 0 {
		t.Errorf("after two rotten reads: %d load errors, %d entries; want 2 and 0", n, s.cache.Len())
	}

	executed := s.sched.Executed()
	st2, _ := postJob(t, ts, req)
	if fin := waitJob(t, ts, st2.ID); fin.State != JobDone || fin.Cached != 0 {
		t.Fatalf("resubmission: state %s with %d cells cached, want done with none", fin.State, fin.Cached)
	}
	if got := s.sched.Executed(); got != executed+2 {
		t.Errorf("resubmission ran %d cells, want 2", got-executed)
	}
	for _, c := range jobResult(t, ts, st2.ID).Cells {
		if c.Result == nil || c.Error != "" {
			t.Errorf("%s/%s after the cold rerun: result %v, error %q", c.Workload, c.Config, c.Result != nil, c.Error)
		}
	}
}

// TestStoreDropsOldestFinishedJobs: past its bound the job store drops its
// oldest finished jobs, whose IDs then answer 404, but never a running one;
// the report keeps their cells, and the stored-job counts follow the store.
func TestStoreDropsOldestFinishedJobs(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 1})
	s.store.keep = 2
	release := blockWorkers(s)
	req := JobRequest{Workloads: []string{"guarded"}, Configs: []string{sim.CfgBase}, Quick: true}
	var ids []string
	for i := 0; i < 3; i++ {
		st, _ := postJob(t, ts, req)
		ids = append(ids, st.ID)
	}
	if n := s.store.Len(); n != 3 {
		t.Errorf("store keeps %d of 3 running jobs over a bound of 2, want all", n)
	}
	release()
	for _, id := range ids {
		waitJob(t, ts, id)
	}
	// The fourth job is a results-cache hit, finished before it is
	// published; publishing it drops the two oldest finished jobs.
	st4, _ := postJob(t, ts, req)
	ids = append(ids, st4.ID)
	for i, id := range ids {
		resp, err := http.Get(ts.URL + API + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorReply
		_ = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		switch {
		case i < 2 && (resp.StatusCode != http.StatusNotFound || er.Kind != KindNotFound):
			t.Errorf("dropped job %s: %s %q, want 404 %s", id, resp.Status, er.Kind, KindNotFound)
		case i >= 2 && resp.StatusCode != http.StatusOK:
			t.Errorf("kept job %s: %s, want 200", id, resp.Status)
		}
	}
	var hz Healthz
	getJSON(t, ts.URL+API+"/healthz", &hz)
	var snap obs.Snapshot
	getJSON(t, ts.URL+API+"/obs", &snap)
	if hz.Jobs != 2 || snap.Gauges["serve.jobs.stored"] != 2 {
		t.Errorf("healthz jobs %d, serve.jobs.stored %v; want 2 and 2", hz.Jobs, snap.Gauges["serve.jobs.stored"])
	}
	var rep ReportReply
	getJSON(t, ts.URL+API+"/report", &rep)
	if len(rep.Figures) != 1 || len(rep.Figures[0].Rows) != 1 {
		t.Errorf("report figures = %+v, want the one guarded/base row", rep.Figures)
	}
}

// TestDedupBatching submits two identical jobs while the workers are parked:
// the second job's cells must batch onto the first job's flights, execute
// once, and resolve both jobs with the same results.
func TestDedupBatching(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 2})
	release := blockWorkers(s)

	req := JobRequest{Workloads: []string{"guarded"}, Configs: []string{sim.CfgBase, sim.CfgPhelps}, Quick: true}
	st1, _ := postJob(t, ts, req)
	st2, _ := postJob(t, ts, req)
	if deduped := s.cellsDeduped.Load(); deduped != 2 {
		t.Errorf("deduped = %d, want 2 (second job's cells should join the first job's flights)", deduped)
	}
	release()

	fin1, fin2 := waitJob(t, ts, st1.ID), waitJob(t, ts, st2.ID)
	if fin1.State != JobDone || fin2.State != JobDone {
		t.Fatalf("states = %s/%s, want done/done", fin1.State, fin2.State)
	}
	// 2 parked blockers + 2 real cells: the deduped pair never re-ran.
	if got := s.sched.Executed(); got != uint64(s.sched.Workers())+2 {
		t.Errorf("executed = %d, want %d", got, s.sched.Workers()+2)
	}
	r1, r2 := jobResult(t, ts, st1.ID), jobResult(t, ts, st2.ID)
	for i := range r1.Cells {
		a, b := r1.Cells[i], r2.Cells[i]
		if a.Result == nil || b.Result == nil || a.Result.Cycles != b.Result.Cycles {
			t.Errorf("cell %d: deduped jobs disagree", i)
		}
	}
}

// TestDrainPersistsCache drains a daemon with a cache file and boots a
// successor from it: the same job must be answered fully from cache with
// zero simulations.
func TestDrainPersistsCache(t *testing.T) {
	t.Parallel()
	cachePath := filepath.Join(t.TempDir(), "phelpsd.cache")
	req := JobRequest{Workloads: []string{"guarded", "delinquent"}, Configs: []string{sim.CfgBase}, Quick: true}

	s1, ts1 := newTestServer(t, Config{Workers: 2, CachePath: cachePath})
	st, _ := postJob(t, ts1, req)
	if fin := waitJob(t, ts1, st.ID); fin.State != JobDone {
		t.Fatalf("warmup job state = %s", fin.State)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Draining rejects new work with 503.
	if _, resp := postJob(t, ts1, req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %s, want 503", resp.Status)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 2, CachePath: cachePath})
	if err := s2.CacheLoadErr(); err != nil {
		t.Fatalf("successor cache load: %v", err)
	}
	st2, _ := postJob(t, ts2, req)
	fin := waitJob(t, ts2, st2.ID)
	if fin.State != JobDone {
		t.Fatalf("successor job state = %s", fin.State)
	}
	if fin.Cached != fin.Total {
		t.Errorf("successor served %d/%d from cache, want all", fin.Cached, fin.Total)
	}
	if got := s2.sched.Executed(); got != 0 {
		t.Errorf("successor simulated %d cells, want 0", got)
	}
}

// TestBadRequests covers the validation 400s and the 404.
func TestBadRequests(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"empty", JobRequest{}},
		{"unknown workload", JobRequest{Workloads: []string{"no-such"}, Configs: []string{sim.CfgBase}}},
		{"unknown config", JobRequest{Workloads: []string{"guarded"}, Configs: []string{"no-such"}}},
	}
	for _, tc := range cases {
		if _, resp := postJob(t, ts, tc.req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", tc.name, resp.Status)
		}
	}
	if resp := getJSON(t, ts.URL+API+"/jobs/j-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %s, want 404", resp.Status)
	}
}

// TestEndpoints smoke-tests the read-only endpoints.
func TestEndpoints(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1})
	st, _ := postJob(t, ts, JobRequest{Workloads: []string{"guarded"}, Configs: []string{sim.CfgBase, sim.CfgPhelps}, Quick: true})
	waitJob(t, ts, st.ID)

	var names NameList
	getJSON(t, ts.URL+API+"/workloads?quick=true", &names)
	if len(names.Names) == 0 {
		t.Error("no workloads listed")
	}
	getJSON(t, ts.URL+API+"/configs", &names)
	if len(names.Names) == 0 {
		t.Error("no configs listed")
	}

	var hz Healthz
	getJSON(t, ts.URL+API+"/healthz", &hz)
	if !hz.OK || hz.State != "serving" || hz.Jobs != 1 {
		t.Errorf("healthz = %+v", hz)
	}

	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	getJSON(t, ts.URL+API+"/obs", &snap)
	if snap.Counters["serve.cells.done"] != 2 {
		t.Errorf("obs cells.done = %d, want 2", snap.Counters["serve.cells.done"])
	}

	var rep ReportReply
	getJSON(t, ts.URL+API+"/report", &rep)
	if len(rep.Figures) != 1 || rep.Figures[0].Name != "serve.cells" || len(rep.Figures[0].Rows) != 2 {
		t.Fatalf("report figures = %+v", rep.Figures)
	}
	if g, ok := rep.Geomeans["quick."+sim.CfgPhelps]; !ok || g <= 1.0 {
		t.Errorf("report geomean quick.%s = %v, %v (phelps should beat base on guarded)", sim.CfgPhelps, g, ok)
	}
}

// TestVersionEndpoint checks GET /v1/version reports the build and schema
// identifiers a client needs for a compatibility check.
func TestVersionEndpoint(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1})
	var v VersionReply
	if resp := getJSON(t, ts.URL+API+"/version", &v); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET version: %s", resp.Status)
	}
	if v.Version != Version || v.API != API {
		t.Errorf("version reply = %+v, want version %q api %q", v, Version, API)
	}
	if !strings.HasPrefix(v.GoVersion, "go") {
		t.Errorf("go version = %q", v.GoVersion)
	}
	if v.ReportSchema != obs.BenchReportSchema || v.HostBenchSchema != obs.HostBenchSchema {
		t.Errorf("schemas = %d/%d, want %d/%d", v.ReportSchema, v.HostBenchSchema,
			obs.BenchReportSchema, obs.HostBenchSchema)
	}
}

// TestErrorEnvelope requires every non-2xx response — handler-produced errors
// and the mux's own 404/405 alike — to carry the JSON ErrorReply envelope
// with a stable kind.
func TestErrorEnvelope(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1})
	decode := func(resp *http.Response) ErrorReply {
		t.Helper()
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: Content-Type = %q, want application/json", resp.Request.URL, ct)
		}
		var er ErrorReply
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s: decode error envelope: %v", resp.Request.URL, err)
		}
		return er
	}

	// Handler-produced errors. A job body is exactly one JSON value: bytes
	// after a valid request are malformed, never ignored. A request carries
	// no fault injection: a faults field is an unknown field.
	const valid = `{"workloads":["guarded"],"configs":["base"],"quick":true}`
	faults := valid[:len(valid)-1] + `,"faults":[{"workload":"guarded","config":"base","kind":"panic"}]}`
	for _, body := range []string{"{}", valid + " trailing", valid + `{"workloads":[]}`, valid + "]", faults} {
		resp, err := http.Post(ts.URL+API+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if er := decode(resp); resp.StatusCode != http.StatusBadRequest || er.Kind != KindBadRequest || er.Error == "" {
			t.Errorf("submit %q: %s kind=%q error=%q", body, resp.Status, er.Kind, er.Error)
		}
	}
	resp, err := http.Get(ts.URL + API + "/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	if er := decode(resp); resp.StatusCode != http.StatusNotFound || er.Kind != KindNotFound {
		t.Errorf("unknown job: %s kind=%q", resp.Status, er.Kind)
	}

	// Mux-produced errors, rewritten by the Handler wrapper.
	resp, err = http.Get(ts.URL + API + "/no-such-route")
	if err != nil {
		t.Fatal(err)
	}
	if er := decode(resp); resp.StatusCode != http.StatusNotFound || er.Kind != KindNotFound {
		t.Errorf("unknown route: %s kind=%q", resp.Status, er.Kind)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+API+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if er := decode(resp); resp.StatusCode != http.StatusMethodNotAllowed || er.Kind != KindBadRequest {
		t.Errorf("wrong method: %s kind=%q", resp.Status, er.Kind)
	}
}

// FuzzSubmitBody: each input is a POST /v1/jobs body, served by one daemon
// whose pool is closed before the first input, so Submit still validates,
// plans and admits but no cell simulates. Every reply must be a JSON 202,
// 400 or 429 and no input may panic; a 202 must come from a body that is
// exactly one JSON value, with one cell per (workload, config) pair. The
// daemon's cell bound is small so that a few bytes of request can exceed
// it. The committed corpus holds an accepted request, an unknown workload,
// an unknown config, an oversize cross product, trailing bytes, non-JSON,
// and two requests carrying a faults field, an unknown field (the seeds
// named valid and bad-fault-kind), so both are 400s.
func FuzzSubmitBody(f *testing.F) {
	s := NewServer(Config{Workers: 1, QueueCap: fuzzMaxCells, CrashDir: f.TempDir()})
	s.sched.Close()
	f.Cleanup(func() { _ = s.Close() })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, API+"/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d with a non-JSON reply: %q", rec.Code, rec.Body)
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		var req JobRequest
		if !json.Valid(body) || json.Unmarshal(body, &req) != nil {
			t.Fatalf("202 for a body that is not exactly one job request: %q", body)
		}
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("decode 202 reply: %v", err)
		}
		if want := len(req.Workloads) * len(req.Configs); st.Total != want {
			t.Fatalf("202 with %d cells for %d workloads x %d configs", st.Total, len(req.Workloads), len(req.Configs))
		}
	})
}

// TestConcurrentSmallJobs is the load test: many clients submitting
// overlapping small jobs concurrently (dedup, cache, and admission all
// active), with the counters consistent afterwards. Run with -race.
func TestConcurrentSmallJobs(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 4, QueueCap: 256})
	workloads := []string{"guarded", "delinquent", "nested"}
	configs := []string{sim.CfgBase, sim.CfgPhelps}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := JobRequest{
				Workloads: []string{workloads[i%len(workloads)], workloads[(i+1)%len(workloads)]},
				Configs:   configs,
				Quick:     true,
			}
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+API+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			var st JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			for st.State == JobRunning {
				time.Sleep(5 * time.Millisecond)
				r2, err := http.Get(ts.URL + API + "/jobs/" + st.ID)
				if err != nil {
					errs <- err
					return
				}
				err = json.NewDecoder(r2.Body).Decode(&st)
				r2.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				// Exercise Snapshot and Report under live traffic.
				if r3, err := http.Get(ts.URL + API + "/report"); err == nil {
					r3.Body.Close()
				}
			}
			if st.State != JobDone {
				errs <- fmt.Errorf("job %s finished %s", st.ID, st.State)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	sub, done := s.cellsSubmitted.Load(), s.cellsDone.Load()
	if sub != uint64(clients*4) || done != sub {
		t.Errorf("cells submitted %d done %d, want %d each", sub, done, clients*4)
	}
	if d := s.adm.Depth(); d != 0 {
		t.Errorf("admission depth %d after all jobs resolved, want 0", d)
	}
	// Only 6 distinct keys exist; everything else was dedup or cache.
	if ex := s.sched.Executed(); ex > uint64(len(workloads)*len(configs)) {
		t.Errorf("executed %d distinct cells, want <= %d", ex, len(workloads)*len(configs))
	}
}
