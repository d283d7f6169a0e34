package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phelps/internal/fsio"
	"phelps/internal/sim"
)

// testMaxCells is the per-job cell bound the journal tests open with: the
// daemon's default QueueCap.
const testMaxCells = 1024

func twoCellReq() JobRequest {
	return JobRequest{Workloads: []string{"guarded", "delinquent"}, Configs: []string{sim.CfgBase}, Quick: true}
}

// TestJournalRoundTrip drives a job through the journal's record kinds and
// requires a reopened journal to reconstruct it exactly — and to forget it
// once it completes.
func TestJournalRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	req := twoCellReq()

	j := OpenJournal(fsio.OS, dir, testMaxCells)
	j.Accept("j-000007", req)
	j.Cell("j-000007", 0, CellRunning, "")
	j.Cell("j-000007", 0, CellDone, "")
	j.Cell("j-000007", 1, CellRunning, "")
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2 := OpenJournal(fsio.OS, dir, testMaxCells)
	resumed := j2.Resumed()
	if len(resumed) != 1 {
		t.Fatalf("resumed %d jobs, want 1", len(resumed))
	}
	rj := resumed[0]
	if rj.ID != "j-000007" || len(rj.Cells) != 2 {
		t.Fatalf("resumed job = %+v", rj)
	}
	if c := rj.Cells[0]; c.State != CellDone {
		t.Errorf("cell 0 = %+v, want done", c)
	}
	if c := rj.Cells[1]; c.State != CellRunning {
		t.Errorf("cell 1 = %+v, want running", c)
	}

	// Finishing the job makes it compactable: the next boot sees nothing.
	j2.Cell("j-000007", 1, CellDone, "")
	j2.JobDone("j-000007")
	if err := j2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	j3 := OpenJournal(fsio.OS, dir, testMaxCells)
	defer j3.Close()
	if got := j3.Resumed(); len(got) != 0 {
		t.Errorf("completed job survived compaction: %+v", got)
	}
}

// TestJournalTornTail appends garbage after valid records: replay must stop
// at the torn frame (counted), keep everything before it, and compaction
// must drop the tail.
func TestJournalTornTail(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j := OpenJournal(fsio.OS, dir, testMaxCells)
	j.Accept("j-000001", twoCellReq())
	j.Cell("j-000001", 0, CellRunning, "")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := OpenJournal(fsio.OS, dir, testMaxCells)
	defer j2.Close()
	if j2.Truncated() == 0 {
		t.Error("torn tail not counted as truncated")
	}
	resumed := j2.Resumed()
	if len(resumed) != 1 || resumed[0].Cells[0].State != CellRunning {
		t.Fatalf("records before the tear lost: %+v", resumed)
	}
	// Boot compaction rewrote the file; a third open replays cleanly.
	j3 := OpenJournal(fsio.OS, dir, testMaxCells)
	defer j3.Close()
	if j3.Truncated() != 0 {
		t.Errorf("compaction left a torn tail behind (truncated=%d)", j3.Truncated())
	}
}

// TestJournalGarbageFile proves a corrupt header degrades to a counted error
// with the journal still usable for new work.
func TestJournalGarbageFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := OpenJournal(fsio.OS, dir, testMaxCells)
	defer j.Close()
	if j.Errors() == 0 {
		t.Error("garbage header not counted as an error")
	}
	if got := j.Resumed(); len(got) != 0 {
		t.Errorf("garbage file resumed jobs: %+v", got)
	}
	j.Accept("j-000001", twoCellReq())
	if st := j.Stats(); st.Degraded {
		t.Errorf("journal degraded after garbage file: %+v", st)
	}
	j2 := OpenJournal(fsio.OS, dir, testMaxCells)
	defer j2.Close()
	if got := j2.Resumed(); len(got) != 1 {
		t.Errorf("accept after garbage recovery not replayed: %d jobs", len(got))
	}
}

// TestJournalDiskFaults proves journal I/O failures degrade to counted errors
// — never a crash — and that the journal heals once the disk does.
func TestJournalDiskFaults(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ffs := &fsio.FaultFS{}
	ffs.FailWrites(fsio.ErrNoSpace)
	j := OpenJournal(ffs, dir, testMaxCells)
	j.Accept("j-000001", twoCellReq())
	j.Cell("j-000001", 0, CellDone, "")
	if j.Errors() == 0 {
		t.Error("ENOSPC appends not counted")
	}
	// In-memory view still tracks the job even though nothing reached disk.
	if got := j.Resumed(); len(got) != 1 {
		t.Errorf("in-memory live view lost under ENOSPC: %d jobs", len(got))
	}
	j.Close()

	ffs.FailWrites(nil)
	j2 := OpenJournal(ffs, dir, testMaxCells)
	defer j2.Close()
	if got := j2.Resumed(); len(got) != 0 {
		t.Errorf("ENOSPC journal resumed phantom jobs: %+v", got)
	}
	j2.Accept("j-000002", twoCellReq())
	if st := j2.Stats(); st.Degraded || st.SizeBytes == 0 {
		t.Errorf("journal did not heal: %+v", st)
	}
}

// TestServerResumesJournaledJob boots a daemon over a journal holding an
// incomplete job (the shape a SIGKILL leaves behind): the job is re-registered
// under its original ID, its unresolved cells re-run idempotently, a journaled
// terminal failure stays sticky, and new submissions don't collide with the
// resumed ID.
func TestServerResumesJournaledJob(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	req := twoCellReq()

	j := OpenJournal(fsio.OS, dir, testMaxCells)
	j.Accept("j-000003", req)
	j.Cell("j-000003", 0, CellRunning, "")
	j.Cell("j-000003", 1, CellFailed, "sim: verification failed")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Workers: 2, JournalDir: dir})
	fin := waitJob(t, ts, "j-000003")
	if fin.State != JobFailed {
		t.Fatalf("resumed job state = %s, want failed (sticky cell): %+v", fin.State, fin)
	}
	for _, c := range fin.Cells {
		switch c.Workload {
		case "guarded":
			if c.State != CellDone {
				t.Errorf("re-run cell: state %s, want done (err %q)", c.State, c.Error)
			}
		case "delinquent":
			if c.State != CellFailed || !strings.Contains(c.Error, "verification") {
				t.Errorf("sticky cell: state %s error %q, want journaled failure", c.State, c.Error)
			}
		}
	}
	if s.journal.ResumedJobs() != 1 {
		t.Errorf("resumed_jobs = %d, want 1", s.journal.ResumedJobs())
	}

	// The ID sequence was bumped past the resumed job.
	st, resp := postJob(t, ts, JobRequest{Workloads: []string{"guarded"}, Configs: []string{sim.CfgBase}, Quick: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-resume submit: %s", resp.Status)
	}
	if st.ID <= "j-000003" {
		t.Errorf("new job ID %s collides with resumed sequence", st.ID)
	}
	if fin2 := waitJob(t, ts, st.ID); fin2.State != JobDone {
		t.Errorf("post-resume job state = %s", fin2.State)
	}

	// Once everything is terminal, a restart has nothing to resume.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	j2 := OpenJournal(fsio.OS, dir, testMaxCells)
	defer j2.Close()
	if got := j2.Resumed(); len(got) != 0 {
		t.Errorf("terminal jobs survived in journal: %+v", got)
	}
}

// TestResumeInvalidRequest boots a daemon over a journaled job whose request
// no longer validates (it names a workload the registry lacks) and whose
// first cell already failed. Nothing runs: the journaled failure keeps its
// error, every other cell fails with a resume error, and the failed job is
// retired from the journal.
func TestResumeInvalidRequest(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j := OpenJournal(fsio.OS, dir, testMaxCells)
	j.Accept("j-000005", JobRequest{Workloads: []string{"guarded", "no-such", "delinquent"}, Configs: []string{sim.CfgBase}, Quick: true})
	j.Cell("j-000005", 0, CellFailed, "sim: verification failed")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	fin := waitJob(t, ts, "j-000005")
	if fin.State != JobFailed || len(fin.Cells) != 3 {
		t.Fatalf("resumed job = %+v, want 3 cells, failed", fin)
	}
	if c := fin.Cells[0]; c.State != CellFailed || c.Error != "sim: verification failed" {
		t.Errorf("journaled cell: state %s error %q, want its journaled failure", c.State, c.Error)
	}
	for _, c := range fin.Cells[1:] {
		if c.State != CellFailed || !strings.HasPrefix(c.Error, "resume:") {
			t.Errorf("cell %s: state %s error %q, want a resume failure", c.Workload, c.State, c.Error)
		}
	}
	if got, _ := s.Registry().CounterValue("serve.sched.executed"); got != 0 {
		t.Errorf("serve.sched.executed = %d, want 0", got)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	j2 := OpenJournal(fsio.OS, dir, testMaxCells)
	defer j2.Close()
	if got := j2.Resumed(); len(got) != 0 {
		t.Errorf("failed job survived in journal: %+v", got)
	}
}

// TestResumedJobBitIdentical journals a fully unstarted job, lets a fresh
// daemon resume it, and requires the recovered results to be bit-identical to
// a direct library run — resume must be a replay, never a perturbation.
func TestResumedJobBitIdentical(t *testing.T) {
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
		t.Fatal(err)
	}

	dir := t.TempDir()
	j := OpenJournal(fsio.OS, dir, testMaxCells)
	j.Accept("j-000001", JobRequest{Workloads: workloads, Configs: configs, Quick: true})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 2, JournalDir: dir})
	if fin := waitJob(t, ts, "j-000001"); fin.State != JobDone {
		t.Fatalf("resumed job state = %s", fin.State)
	}
	for _, c := range jobResult(t, ts, "j-000001").Cells {
		w := want[c.Workload][c.Config]
		if c.Result == nil || c.Result.Cycles != w.Cycles || c.Result.Retired != w.Retired {
			t.Errorf("%s/%s: resumed run not bit-identical to direct run", c.Workload, c.Config)
		}
	}
}

// TestResumeOlderJournal boots a daemon over a journal in the format older
// builds wrote: every cell record carries an attempt count, and the daemon
// journaled running transitions, so one cell's last record says running. The
// job resumes under its ID, re-runs both cells, and finishes bit-identical to
// a direct library run.
func TestResumeOlderJournal(t *testing.T) {
	t.Parallel()
	workloads := []string{"guarded", "delinquent"}
	var specs []sim.Spec
	for _, w := range workloads {
		sp, err := sim.SpecByName(w, true)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	want, err := sim.RunMatrixOpt(specs, []string{sim.CfgBase}, sim.MatrixOptions{CrashDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	writeJournal(t, dir,
		[]byte(`{"kind":"accept","job":"j-000009","req":{"workloads":["guarded","delinquent"],"configs":["base"],"quick":true}}`),
		[]byte(`{"kind":"cell","job":"j-000009","cell":0,"state":"running","attempt":1}`),
		[]byte(`{"kind":"cell","job":"j-000009","cell":0,"state":"done","attempt":1}`),
		[]byte(`{"kind":"cell","job":"j-000009","cell":1,"state":"running","attempt":2}`))

	s, ts := newTestServer(t, Config{Workers: 2, JournalDir: dir})
	if fin := waitJob(t, ts, "j-000009"); fin.State != JobDone {
		t.Fatalf("resumed job state = %s: %+v", fin.State, fin)
	}
	if got := s.journal.ResumedCells(); got != 2 {
		t.Errorf("resumed_cells = %d, want 2", got)
	}
	for _, c := range jobResult(t, ts, "j-000009").Cells {
		w := want[c.Workload][sim.CfgBase]
		if c.Result == nil || c.Result.Cycles != w.Cycles || c.Result.Retired != w.Retired || c.Result.Mispredicts != w.Mispredicts {
			t.Errorf("%s/%s: resumed run not bit-identical to direct run", c.Workload, c.Config)
		}
	}
}

// TestJournalFormatPinned pins the PJW1 on-disk bytes — header, framing and
// FNV-1a trailers — against values recorded before the journal moved onto
// the shared codec seal and atomic writer: a fresh journal holding one
// accept and one cell transition, and the same journal after a reopen
// rewrote it through compaction. The cell frame was re-recorded when cell
// records dropped their attempt count.
func TestJournalFormatPinned(t *testing.T) {
	t.Parallel()
	const want = "" +
		"31574a5001000000" + // magic "PJW1", schema 1
		// accept frame: length, JSON payload, FNV-1a trailer
		"7f0000007b226b696e64223a22616363657074222c226a6f62223a226a2d3030" +
		"30303432222c22726571223a7b22776f726b6c6f616473223a5b22626673225d" +
		"2c22636f6e66696773223a5b2262617365222c227068656c7073225d2c227175" +
		"69636b223a747275652c2273616d706c6564223a747275652c2273656564223a" +
		"397d7de3f7e353e5a56a77" +
		// cell frame
		"3b0000007b226b696e64223a2263656c6c222c226a6f62223a226a2d30303030" +
		"3432222c2263656c6c223a312c227374617465223a2272756e6e696e67227dfe" +
		"c58ec65e962cff"
	dir := t.TempDir()
	j := OpenJournal(fsio.OS, dir, testMaxCells)
	j.Accept("j-000042", JobRequest{Workloads: []string{"bfs"}, Configs: []string{sim.CfgBase, sim.CfgPhelps}, Quick: true, Sampled: true, Seed: 9})
	j.Cell("j-000042", 1, CellRunning, "")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", data); got != want {
			t.Errorf("%s journal bytes changed:\n  got  %s\n  want %s", stage, got, want)
		}
	}
	check("appended")
	// Reopening replays the file and rewrites it through compaction.
	if err := OpenJournal(fsio.OS, dir, testMaxCells).Close(); err != nil {
		t.Fatal(err)
	}
	check("compacted")
}

// writeJournal writes a journal file holding the header and one sealed frame
// per payload, framed exactly as the journal appends them.
func writeJournal(t *testing.T, dir string, payloads ...[]byte) {
	t.Helper()
	writeFrames(t, filepath.Join(dir, journalFile), journalMagic, journalSchema, payloads...)
}

// TestJournalOversizeAccept boots a daemon over a 320 KB journal holding one
// correctly sealed accept for 40,000 workloads × 40,000 configs (1.6e9
// cells). The journal must drop the job before sizing anything by it and
// count it in serve.journal.errors; the daemon comes up with nothing to
// resume.
func TestJournalOversizeAccept(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	names := make([]string, 40_000)
	for i := range names {
		names[i] = "a"
	}
	accept, err := json.Marshal(journalRecord{Kind: recAccept, Job: "j-000001",
		Req: &JobRequest{Workloads: names, Configs: names}})
	if err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir, accept)

	s, _ := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	for name, want := range map[string]uint64{
		"serve.journal.replayed":     1,
		"serve.journal.errors":       1,
		"serve.journal.resumed_jobs": 0,
	} {
		if got, _ := s.Registry().CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if st := s.journal.Stats(); st.LiveJobs != 0 {
		t.Errorf("live jobs = %d, want 0", st.LiveJobs)
	}
}

// fuzzMaxCells is the cell bound FuzzJournalReplay opens its journals with,
// small so that a few bytes of request can exceed it.
const fuzzMaxCells = 16

// FuzzJournalReplay: each line of the fuzzed input is one record payload,
// sealed and framed as the journal writes it, so inputs get past the
// checksum to the record decoder and the replay logic. Any file must open:
// every frame either replays or stops the replay as a counted truncation,
// and every resumed job has one cell per (workload, config) pair and no
// more than the bound. The committed corpus holds a job with cell
// transitions, a completed job, an accept over the bound, and a record
// that is not JSON between two good ones.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var payloads [][]byte
		for _, p := range bytes.Split(in, []byte("\n")) {
			if len(p) > 0 {
				payloads = append(payloads, p)
			}
		}
		dir := t.TempDir()
		writeJournal(t, dir, payloads...)
		j := OpenJournal(fsio.OS, dir, fuzzMaxCells)
		defer j.Close()
		if n := uint64(len(payloads)); j.Replayed() != n && (j.Truncated() != 1 || j.Replayed() >= n) {
			t.Fatalf("%d frames: %d replayed, %d truncated", n, j.Replayed(), j.Truncated())
		}
		for _, rj := range j.Resumed() {
			if n := len(rj.Req.Workloads) * len(rj.Req.Configs); len(rj.Cells) != n || n > fuzzMaxCells {
				t.Fatalf("job %s resumed with %d cells for %d, bound %d", rj.ID, len(rj.Cells), n, fuzzMaxCells)
			}
		}
	})
}
