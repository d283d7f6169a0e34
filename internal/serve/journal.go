package serve

// Write-ahead job journal (see DESIGN.md · Durability & self-healing). Every
// job the daemon acknowledges is appended here before the 202 goes out, and
// every cell's terminal transition (done, failed or canceled) follows, so a
// SIGKILL at any instant leaves enough on disk to reconstruct the daemon's
// obligations: on the next boot the journal is replayed, incomplete jobs are
// re-registered under their original IDs, and their unresolved cells are
// re-enqueued. A cell that was running at the kill is re-enqueued like a
// pending one, so the daemon journals no running transitions. Re-execution
// is idempotent because results are cache-keyed — a resumed cell either hits
// the persisted results cache or deterministically recomputes the same
// numbers.
//
// Format: one file (journal.wal) holding a header (magic + schema) followed
// by length-framed records, each a JSON payload sealed with a trailing
// FNV-1a checksum (codec.Seal); the results log (cache.go) shares it through
// appendFrame and readFrames. A record is written with a single Write call,
// so a torn write tears inside one record and the checksum catches it:
// replay stops at the first bad frame and compaction drops the torn tail.
// Completed jobs are compacted away — at boot, and inline whenever enough
// finished jobs accumulate — by atomically rewriting the file with only
// live-job records.
//
// Degradation: journal I/O failures (ENOSPC, torn writes, bit-rot) are
// counted (serve.journal.errors) and never crash or block serving — the
// daemon degrades to the pre-journal in-memory behavior, visible to
// operators via /v1/healthz. An accept record for a job larger than the
// server's QueueCap (which Submit never admits, so only corruption or
// a hand-written file produces one) is dropped and counted the same way,
// before anything is sized by it.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"phelps/internal/codec"
	"phelps/internal/fsio"
)

const (
	// journalMagic identifies journal files ("PJW1").
	journalMagic uint32 = 0x504a5731
	// journalSchema versions the record layout; a mismatched file is
	// discarded whole (jobs are re-submittable, results re-computable).
	journalSchema uint32 = 1
	// journalFile is the journal's name inside its directory.
	journalFile = "journal.wal"
	// compactEvery triggers an inline compaction once this many completed
	// jobs are sitting in the file.
	compactEvery = 8
	// maxFrame bounds one frame of either framed file on replay (a record is
	// at most a few KB; 4 MiB rejects garbage lengths from corruption).
	maxFrame = 4 << 20
)

// Journal record kinds.
const (
	recAccept = "accept" // job admitted: ID + full request
	recCell   = "cell"   // one cell's transition: terminal, or running from older builds
	recJob    = "job"    // job reached a terminal state
)

// journalRecord is the JSON payload of one record.
type journalRecord struct {
	Kind string `json:"kind"`
	Job  string `json:"job"`
	// Accept fields.
	Req *JobRequest `json:"req,omitempty"`
	// Cell fields. Records written by older builds also carry an
	// "attempt" count, which replay ignores.
	Cell  int    `json:"cell,omitempty"`
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// jcell is the journal's latest view of one cell.
type jcell struct {
	state string
	err   string
}

// jjob is the journal's view of one job.
type jjob struct {
	id       string
	req      JobRequest
	cells    []jcell
	terminal bool
}

func (j *jjob) complete() bool {
	if j.terminal {
		return true
	}
	for i := range j.cells {
		switch j.cells[i].state {
		case CellDone, CellFailed, CellCanceled:
		default:
			return false
		}
	}
	return true
}

// ResumedCell is one cell's journaled state handed back to the server at
// boot: terminal failures and cancellations are sticky, everything else is
// re-enqueued.
type ResumedCell struct {
	State string
	Error string
}

// ResumedJob is an incomplete journaled job the restarted daemon must finish.
type ResumedJob struct {
	ID    string
	Req   JobRequest
	Cells []ResumedCell
}

// Journal is the daemon's write-ahead job journal. All methods are safe for
// concurrent use; appends are serialized under one mutex (they are small
// compared to the cells they describe).
type Journal struct {
	fs       fsio.FS
	path     string
	maxCells int // cells per job; a larger replayed accept is dropped

	mu        sync.Mutex
	f         fsio.File // nil if the file could not be (re)opened — degraded
	size      int64     // bytes in the file
	live      map[string]*jjob
	order     []string // journal insertion order of live jobs
	completed int      // completed jobs not yet compacted away
	lag       uint64   // records appended since the last compaction

	appends, replayed, truncated atomic.Uint64
	compactions, errs            atomic.Uint64
	resumedJobs, resumedCells    atomic.Uint64
}

// OpenJournal opens (or creates) the journal under dir, replays any existing
// records, and compacts the file down to its live jobs — dropping completed
// entries, any torn tail, and jobs of more than maxCells cells. The returned
// journal is usable even when the directory is unwritable; appends then
// degrade to counted errors.
func OpenJournal(fs fsio.FS, dir string, maxCells int) *Journal {
	if fs == nil {
		fs = fsio.OS
	}
	j := &Journal{fs: fs, path: filepath.Join(dir, journalFile), maxCells: maxCells,
		live: make(map[string]*jjob)}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		j.errs.Add(1)
	}
	j.replay()
	j.mu.Lock()
	j.compactLocked() // rewrites live records only, then opens the append handle
	j.mu.Unlock()
	return j
}

// replay parses the journal file into the live map. Framing or checksum
// failures stop the replay at the last good record (counted as truncated);
// an unreadable or schema-skewed file is discarded whole (counted error).
func (j *Journal) replay() {
	data, err := j.fs.ReadFile(j.path)
	if err != nil {
		if !os.IsNotExist(err) {
			j.errs.Add(1)
		}
		return
	}
	_, err = readFrames(data, journalMagic, journalSchema, func(_ int64, payload []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		j.apply(&rec)
		j.replayed.Add(1)
		return nil
	})
	switch {
	case errors.Is(err, codec.ErrForeignFile):
		j.errs.Add(1)
	case err != nil:
		j.truncated.Add(1)
	}
}

// apply folds one replayed record into the live map. Records for unknown
// jobs (their accept was compacted away, lost, or dropped as oversize) are
// ignored.
func (j *Journal) apply(rec *journalRecord) {
	switch rec.Kind {
	case recAccept:
		if rec.Req == nil || rec.Job == "" {
			return
		}
		// Both lengths are bounded by the record size, so the product
		// cannot overflow.
		n := len(rec.Req.Workloads) * len(rec.Req.Configs)
		if n > j.maxCells {
			j.errs.Add(1)
			return
		}
		jb := &jjob{id: rec.Job, req: *rec.Req, cells: make([]jcell, n)}
		for i := range jb.cells {
			jb.cells[i].state = CellPending
		}
		if _, dup := j.live[rec.Job]; !dup {
			j.order = append(j.order, rec.Job)
		}
		j.live[rec.Job] = jb
	case recCell:
		jb := j.live[rec.Job]
		if jb == nil || rec.Cell < 0 || rec.Cell >= len(jb.cells) {
			return
		}
		jb.cells[rec.Cell] = jcell{state: rec.State, err: rec.Error}
	case recJob:
		if jb := j.live[rec.Job]; jb != nil {
			jb.terminal = true
		}
	}
}

// Resumed returns the incomplete jobs found at open time, in journal order,
// and counts them. The server re-registers each under its original ID.
func (j *Journal) Resumed() []ResumedJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []ResumedJob
	for _, id := range j.order {
		jb := j.live[id]
		if jb == nil || jb.complete() {
			continue
		}
		rj := ResumedJob{ID: jb.id, Req: jb.req, Cells: make([]ResumedCell, len(jb.cells))}
		resumedCells := 0
		for i, c := range jb.cells {
			rj.Cells[i] = ResumedCell{State: c.state, Error: c.err}
			switch c.state {
			case CellFailed, CellCanceled:
			default:
				resumedCells++
			}
		}
		j.resumedCells.Add(uint64(resumedCells))
		out = append(out, rj)
	}
	j.resumedJobs.Add(uint64(len(out)))
	return out
}

// append frames and writes one record. Failures are counted and swallowed:
// the journal degrades, the daemon serves on.
func (j *Journal) append(rec *journalRecord, sync bool) {
	frame := appendFrame(nil, rec)
	if len(frame) == 0 {
		j.errs.Add(1)
		return
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	j.apply(rec)
	if rec.Kind == recJob {
		j.completed++
		if j.completed >= compactEvery {
			j.compactLocked()
			return // the compacted file already embodies this record
		}
	}
	if j.f == nil {
		j.errs.Add(1)
		return
	}
	if _, err := j.f.Write(frame); err != nil {
		j.errs.Add(1)
		return
	}
	j.size += int64(len(frame))
	j.lag++
	j.appends.Add(1)
	if sync {
		if err := j.f.Sync(); err != nil {
			j.errs.Add(1)
		}
	}
}

// Accept journals an admitted job before it is acknowledged. Synced: once
// the client holds a 202, the job survives anything short of media loss.
func (j *Journal) Accept(jobID string, req JobRequest) {
	j.append(&journalRecord{Kind: recAccept, Job: jobID, Req: &req}, true)
}

// Cell journals one cell state transition. Unsynced: a transition lost to
// an OS crash merely re-runs an idempotent cell.
func (j *Journal) Cell(jobID string, cell int, state, errMsg string) {
	j.append(&journalRecord{Kind: recCell, Job: jobID, Cell: cell, State: state, Error: errMsg}, false)
}

// JobDone journals a job reaching a terminal state, making it eligible for
// compaction.
func (j *Journal) JobDone(jobID string) {
	j.append(&journalRecord{Kind: recJob, Job: jobID}, false)
}

// compactLocked rewrites the journal with only live (incomplete) jobs —
// their accept plus the latest state of each non-pending cell — atomically
// (fsio.WriteFileAtomic with fsync), then reopens the append handle. Called
// with j.mu held.
func (j *Journal) compactLocked() {
	buf := codec.Header(nil, journalMagic, journalSchema)
	records := 0
	keep := j.order[:0]
	for _, id := range j.order {
		jb := j.live[id]
		if jb == nil {
			continue
		}
		if jb.complete() {
			delete(j.live, id)
			continue
		}
		keep = append(keep, id)
		req := jb.req
		buf = appendFrame(buf, &journalRecord{Kind: recAccept, Job: id, Req: &req})
		records++
		for i, c := range jb.cells {
			if c.state == CellPending || c.state == "" {
				continue
			}
			buf = appendFrame(buf, &journalRecord{Kind: recCell, Job: id, Cell: i, State: c.state, Error: c.err})
			records++
		}
	}
	j.order = keep
	j.completed = 0
	j.lag = 0

	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
	ok := fsio.WriteFileAtomic(j.fs, j.path, buf, true) == nil
	if !ok {
		j.errs.Add(1)
	} else {
		j.size = int64(len(buf))
		j.compactions.Add(1)
	}
	f, err := j.fs.OpenAppend(j.path)
	if err != nil {
		j.errs.Add(1)
		return
	}
	j.f = f
	if !ok {
		// The rewrite failed; the append handle sits on the old file. Size is
		// best-effort from Stat.
		if fi, serr := j.fs.Stat(j.path); serr == nil {
			j.size = fi.Size()
		}
	}
}

// appendFrame appends one framed record to buf: the payload length, v's JSON
// payload, and its codec.Seal trailer. A value that does not marshal (a
// sim.Result holding a NaN) leaves buf unchanged.
func appendFrame(buf []byte, v any) []byte {
	payload, err := json.Marshal(v)
	if err != nil {
		return buf
	}
	buf = codec.U32(buf, uint32(len(payload)))
	start := len(buf)
	return codec.Seal(append(buf, payload...), start)
}

// readFrames is the one reader of both framed files, the journal and the
// results log: it checks data's header, hands each frame's offset in data and
// its payload to apply in file order, and returns the length of the valid
// prefix (the header and every frame apply accepted). The error says why it
// stopped short of the end: codec.ErrForeignFile for a wrong header,
// codec.ErrShort for a file shorter than one, else the first frame that is
// torn, fails its seal or is refused by apply. An empty file is an empty
// prefix.
func readFrames(data []byte, magic, schema uint32, apply func(off int64, payload []byte) error) (int, error) {
	if len(data) == 0 {
		return 0, nil
	}
	r := codec.NewReader(data)
	if err := r.Header(magic, schema); err != nil {
		return 0, err
	}
	valid := codec.HeaderSize
	for r.Len() > 0 {
		payload, err := nextFrame(r)
		if err != nil {
			return valid, err
		}
		if err := apply(int64(valid), payload); err != nil {
			return valid, err
		}
		valid = len(data) - r.Len()
	}
	return valid, nil
}

// nextFrame reads one frame from r and returns its payload: codec.ErrShort
// for a frame that is torn or whose length is out of bounds, else the error
// of its seal check.
func nextFrame(r *codec.Reader) ([]byte, error) {
	n := int(r.U32())
	if r.Err() != nil || n <= 0 || n > maxFrame || n+8 > r.Len() {
		return nil, codec.ErrShort
	}
	return codec.Unseal(r.Bytes(n + 8))
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := errors.Join(j.f.Sync(), j.f.Close())
	j.f = nil
	return err
}

// JournalStats is the journal's health view for /v1/healthz and obs gauges.
type JournalStats struct {
	SizeBytes int64  `json:"size_bytes"`
	LiveJobs  int    `json:"live_jobs"`
	Lag       uint64 `json:"lag_records"` // records appended since the last compaction
	Degraded  bool   `json:"degraded"`    // the append handle is gone; journaling is off
}

// Stats snapshots the journal's size, live-job count, and compaction lag.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	live := 0
	for _, jb := range j.live {
		if !jb.complete() {
			live++
		}
	}
	return JournalStats{SizeBytes: j.size, LiveJobs: live, Lag: j.lag, Degraded: j.f == nil}
}

// Counter accessors for the obs registry.
func (j *Journal) Appends() uint64      { return j.appends.Load() }
func (j *Journal) Replayed() uint64     { return j.replayed.Load() }
func (j *Journal) Truncated() uint64    { return j.truncated.Load() }
func (j *Journal) Compactions() uint64  { return j.compactions.Load() }
func (j *Journal) Errors() uint64       { return j.errs.Load() }
func (j *Journal) ResumedJobs() uint64  { return j.resumedJobs.Load() }
func (j *Journal) ResumedCells() uint64 { return j.resumedCells.Load() }
