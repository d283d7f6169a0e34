package serve

import (
	"fmt"
	"sync"
	"time"

	"phelps/internal/sim"
)

// Cell is one (workload, config) execution inside a Job. Its state advances
// pending -> running -> done/failed, or to canceled; the first resolution
// wins and later ones (a canceled cell whose shared flight still completes
// for another job) are ignored.
type Cell struct {
	Workload string
	Config   string
	Key      CellKey

	// idx is the cell's position in its job's Cells slice — the stable
	// identity journal records use, derived from the workloads × configs
	// cross-product order (identical at submit and at replay).
	idx int

	// job and fl are back-references wired at submission: the owning job
	// (set by Store.Register) and the flight this cell subscribed to (nil
	// for a cell the results cache answered). Both are written before the
	// job is published, so before DELETE can reach the cell, and fl under
	// the flight lock before the flight can; read-only afterwards.
	job *Job
	fl  *flight

	mu       sync.Mutex
	state    string
	cached   bool
	res      *sim.Result
	err      error
	resolved bool
	slot     bool // holds an admission slot until resolved
}

// setRunning marks a pending cell running (a late flight start on an
// already-canceled cell is ignored).
func (c *Cell) setRunning() {
	c.mu.Lock()
	if c.state == CellPending {
		c.state = CellRunning
	}
	c.mu.Unlock()
}

// resolve finalizes the cell; only the first call takes effect. It reports
// whether this call was the resolving one and whether the cell held an
// admission slot (the caller releases it exactly once).
func (c *Cell) resolve(state string, res *sim.Result, err error, cached bool) (first, hadSlot bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resolved {
		return false, false
	}
	c.resolved = true
	c.state = state
	c.res = res
	c.err = err
	c.cached = cached
	hadSlot, c.slot = c.slot, false
	return true, hadSlot
}

// status snapshots the cell for the API.
func (c *Cell) status() CellStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CellStatus{
		Workload: c.Workload,
		Config:   c.Config,
		State:    c.state,
		Cached:   c.cached,
	}
	if c.err != nil {
		st.Error = c.err.Error()
	}
	if c.res != nil {
		st.Cycles = c.res.Cycles
		st.Retired = c.res.Retired
		st.IPC = c.res.IPC()
		st.MPKI = c.res.MPKI()
	}
	return st
}

// result snapshots the cell with its full sim.Result.
func (c *Cell) result() CellResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	cr := CellResult{
		Workload: c.Workload,
		Config:   c.Config,
		State:    c.state,
		Cached:   c.cached,
		Result:   c.res,
	}
	if c.err != nil {
		cr.Error = c.err.Error()
	}
	return cr
}

// Job is one submitted experiment: a set of cells plus lifecycle state.
type Job struct {
	ID      string
	Req     JobRequest
	Created time.Time
	Cells   []*Cell

	mu         sync.Mutex
	unresolved int
	canceled   bool
	done       chan struct{} // closed when every cell has resolved
}

// Done returns a channel closed once every cell has resolved.
func (j *Job) Done() <-chan struct{} { return j.done }

// Canceled reports whether DELETE canceled the job.
func (j *Job) Canceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canceled
}

// cellResolved records one cell's resolution, closing done at zero. It
// reports whether this resolution finished the job (the caller journals the
// terminal transition exactly once).
func (j *Job) cellResolved() bool {
	j.mu.Lock()
	j.unresolved--
	fin := j.unresolved == 0
	j.mu.Unlock()
	if fin {
		close(j.done)
	}
	return fin
}

// markCanceled latches the canceled flag (idempotent).
func (j *Job) markCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled {
		return false
	}
	j.canceled = true
	return true
}

// Status snapshots the whole job for the API.
func (j *Job) Status() JobStatus {
	st := JobStatus{
		ID:      j.ID,
		Created: j.Created,
		Quick:   j.Req.Quick,
		Sampled: j.Req.Sampled,
		Total:   len(j.Cells),
		Cells:   make([]CellStatus, 0, len(j.Cells)),
	}
	unresolved := 0
	for _, c := range j.Cells {
		cs := c.status()
		st.Cells = append(st.Cells, cs)
		switch cs.State {
		case CellDone:
			st.Done++
		case CellFailed:
			st.Failed++
		case CellPending, CellRunning:
			unresolved++
		}
		if cs.Cached {
			st.Cached++
		}
	}
	switch {
	case j.Canceled():
		st.State = JobCanceled
	case unresolved > 0:
		st.State = JobRunning
	case st.Failed > 0:
		st.State = JobFailed
	default:
		st.State = JobDone
	}
	return st
}

// Result snapshots the job with full per-cell results.
func (j *Job) Result() JobResult {
	st := j.Status()
	jr := JobResult{ID: j.ID, State: st.State, Cells: make([]CellResult, 0, len(j.Cells))}
	for _, c := range j.Cells {
		jr.Cells = append(jr.Cells, c.result())
	}
	return jr
}

// Store holds every job the daemon has accepted, in submission order.
type Store struct {
	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
	seq   uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{jobs: make(map[string]*Job)}
}

// Register builds a job over cells that no other goroutine can reach yet
// and gives it an ID; Get and Jobs see it only once Publish adds it. An
// empty id allocates the next one; a given id (a journaled job resumed
// after a restart) moves the sequence past it, so new submissions never
// collide with it. Cells arrive pending, or already resolved with a sticky
// journaled outcome; only unresolved cells count toward completion.
func (s *Store) Register(id string, req JobRequest, cells []*Cell) *Job {
	j := &Job{
		Req:     req,
		Created: time.Now().UTC(),
		Cells:   cells,
		done:    make(chan struct{}),
	}
	for _, c := range cells {
		if c.state == "" {
			c.state = CellPending
		}
		if !c.resolved {
			j.unresolved++
		}
		c.job = j
	}
	if j.unresolved == 0 {
		close(j.done)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	if id == "" {
		s.seq++
		id = fmt.Sprintf("j-%06d", s.seq)
	} else if _, err := fmt.Sscanf(id, "j-%d", &n); err == nil && n > s.seq {
		s.seq = n
	}
	j.ID = id
	return j
}

// Publish makes a registered job visible to Get and Jobs.
func (s *Store) Publish(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
}

// Get looks a job up by ID.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Store) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Len returns the number of stored jobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}
