package serve

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"phelps/internal/sim"
)

// submitSampledAndWait submits a sampled job and returns its cell results
// keyed by workload/config.
func submitSampledAndWait(t *testing.T, ts *httptest.Server, req JobRequest) map[string]*sim.Result {
	t.Helper()
	st, resp := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("job state = %s, want done: %+v", fin.State, fin)
	}
	out := make(map[string]*sim.Result)
	for _, c := range jobResult(t, ts, st.ID).Cells {
		if c.Result == nil {
			t.Fatalf("%s/%s: no result (error %q)", c.Workload, c.Config, c.Error)
		}
		out[c.Workload+"/"+c.Config] = c.Result
	}
	return out
}

// TestCkptReuseAcrossRestart: a daemon with a checkpoint-cache directory
// profiles a sampled workload once; a second cell sharing the workload (the
// cache key excludes Mode) and a restarted daemon on the same directory —
// with a cold results cache — both reuse the persisted artifact, and every
// Result is bit-identical.
func TestCkptReuseAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	// Workers: 1 serializes the two cells, making the counter sequence
	// deterministic: cell one cold-misses and stores, cell two hits.
	req := JobRequest{Workloads: []string{"delinquent"}, Configs: []string{sim.CfgBase, sim.CfgPhelps}, Quick: true, Sampled: true}

	s1, ts1 := newTestServer(t, Config{Workers: 1, CkptDir: dir})
	first := submitSampledAndWait(t, ts1, req)
	snap := s1.Registry().Snapshot()
	if h, m, st := snap.Counters["serve.ckpt.hits"], snap.Counters["serve.ckpt.misses"], snap.Counters["serve.ckpt.stores"]; h != 1 || m != 1 || st != 1 {
		t.Fatalf("first boot ckpt counters: hits=%d misses=%d stores=%d, want 1/1/1", h, m, st)
	}
	if e := snap.Counters["serve.ckpt.errors"]; e != 0 {
		t.Fatalf("first boot ckpt errors: %d", e)
	}

	// Second boot: same checkpoint directory, no results cache — every cell
	// re-executes, but the profile/checkpoint passes never re-run.
	s2, ts2 := newTestServer(t, Config{Workers: 1, CkptDir: dir})
	second := submitSampledAndWait(t, ts2, req)
	snap = s2.Registry().Snapshot()
	if h, st := snap.Counters["serve.ckpt.hits"], snap.Counters["serve.ckpt.stores"]; h != 2 || st != 0 {
		t.Fatalf("restart ckpt counters: hits=%d stores=%d, want 2/0", h, st)
	}

	if !reflect.DeepEqual(first, second) {
		t.Errorf("results diverged across restart:\nfirst  %+v\nsecond %+v", first, second)
	}
	// Sanity: the sampled pipeline actually sampled (not a full-run
	// fallback), otherwise the reuse above proved nothing.
	for k, r := range first {
		if r.Sampled == nil {
			t.Fatalf("%s: not a sampled result", k)
		}
		if r.Sampled.FullRun {
			t.Fatalf("%s: fell back to a full run; pick a longer workload", k)
		}
	}
}

// TestSampledJobBuildsEachArtifactOnce: on two workers, a sampled job runs
// each workload's configs as one pool task, so every workload's checkpoint
// artifact is built once — by its first config — and the second config
// measures from it instead of re-profiling on the other worker. The results
// equal the same job on one worker.
func TestSampledJobBuildsEachArtifactOnce(t *testing.T) {
	req := JobRequest{Workloads: []string{"bfs", "delinquent", "astar"}, Configs: []string{sim.CfgBase, sim.CfgPhelps}, Quick: true, Sampled: true, Seed: 5}

	s2, ts2 := newTestServer(t, Config{Workers: 2, CkptDir: t.TempDir()})
	got := submitSampledAndWait(t, ts2, req)
	snap := s2.Registry().Snapshot()
	if st, h := snap.Counters["serve.ckpt.stores"], snap.Counters["serve.ckpt.hits"]; st != 3 || h != 3 {
		t.Fatalf("two-worker ckpt counters: stores=%d hits=%d, want 3/3 (one artifact per workload)", st, h)
	}

	_, ts1 := newTestServer(t, Config{Workers: 1, CkptDir: t.TempDir()})
	want := submitSampledAndWait(t, ts1, req)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("two-worker results diverged from one worker:\ntwo %+v\none %+v", got, want)
	}
	for k, r := range got {
		if r.Sampled == nil || r.Sampled.FullRun {
			t.Fatalf("%s: not a sampled result; pick a longer workload", k)
		}
	}
}

// TestSampledSeedZeroIsDefaultSeed: a sampled job at seed 0 runs at
// sim.DefaultSampleSeed, so the same job at that seed is answered entirely
// from the results cache, with no cell executed again, and the results are
// equal.
func TestSampledSeedZeroIsDefaultSeed(t *testing.T) {
	req := JobRequest{Workloads: []string{"delinquent"}, Configs: []string{sim.CfgBase, sim.CfgPhelps}, Quick: true, Sampled: true}
	s, ts := newTestServer(t, Config{Workers: 1})
	first := submitSampledAndWait(t, ts, req)
	executed, _ := s.Registry().CounterValue("serve.sched.executed")
	if executed != 2 {
		t.Fatalf("serve.sched.executed = %d after the seed-0 job, want 2", executed)
	}

	req.Seed = sim.DefaultSampleSeed
	st, resp := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != JobDone || fin.Cached != fin.Total {
		t.Fatalf("seed-%d job: state %s, %d/%d cells cached, want done and all cached",
			sim.DefaultSampleSeed, fin.State, fin.Cached, fin.Total)
	}
	if got, _ := s.Registry().CounterValue("serve.sched.executed"); got != executed {
		t.Errorf("serve.sched.executed = %d after the seed-%d job, want %d", got, sim.DefaultSampleSeed, executed)
	}
	second := make(map[string]*sim.Result)
	for _, c := range jobResult(t, ts, st.ID).Cells {
		second[c.Workload+"/"+c.Config] = c.Result
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("seed-%d results differ from seed 0:\nseed 0 %+v\nseed %d %+v",
			sim.DefaultSampleSeed, first, sim.DefaultSampleSeed, second)
	}
}
