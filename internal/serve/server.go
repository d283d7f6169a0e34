package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phelps/internal/cpu"
	"phelps/internal/fsio"
	"phelps/internal/obs"
	"phelps/internal/sim"
)

// Config sizes a Server.
type Config struct {
	// Workers is the cell pool size (0 = GOMAXPROCS at NewServer time,
	// capped by the runtime; one goroutine per core).
	Workers int
	// QueueCap bounds the admission queue in cells (0 = 1024). A job with
	// more cold cells than this can never be admitted and is rejected with
	// 400 rather than 429.
	QueueCap int
	// CachePath, when set, is loaded at NewServer and persisted by
	// Drain/Close, so a restarted daemon starts warm.
	CachePath string
	// CrashDir receives minimized crash dumps for panicking cells (empty
	// means $PHELPS_CRASH_DIR, falling back to "crashes"; see
	// sim.MatrixOptions).
	CrashDir string
	// CkptDir, when set, roots a persistent sim.CkptCache for sampled cells:
	// the SimPoint profile/checkpoint passes run once per workload ever, and
	// their product is reused across cells, jobs, and daemon restarts.
	CkptDir string
	// MaxCellsPerJob bounds one job's size (0 = QueueCap).
	MaxCellsPerJob int
	// JournalDir, when set, roots the write-ahead job journal: accepted jobs
	// are journaled before the 202 goes out, and a restarted daemon replays
	// the journal and finishes incomplete jobs under their original IDs.
	JournalDir string
	// Retry bounds per-cell re-execution of transient failures (zero values
	// select the defaults; see RetryPolicy).
	Retry RetryPolicy
	// FS is the filesystem seam shared by the results cache, the checkpoint
	// cache, and the journal (nil = the real filesystem). Tests inject an
	// fsio.FaultFS here to prove disk faults degrade to counted misses.
	FS fsio.FS
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = defaultWorkers()
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.MaxCellsPerJob <= 0 || c.MaxCellsPerJob > c.QueueCap {
		c.MaxCellsPerJob = c.QueueCap
	}
	return c
}

// flight is one deduplicated cell execution: every job cell with the same
// CellKey subscribes to the same flight, and the flight runs once. Flights
// are refcounted by interested cells; when every subscriber's job cancels,
// the flight's context is canceled too (nobody wants the answer anymore).
type flight struct {
	key     CellKey
	ctx     context.Context
	cancel  context.CancelCauseFunc
	cells   []*Cell
	refs    int
	started bool
	done    bool
}

// Server is the experiment daemon: registry-validated job admission, one
// daemon-wide sim.Pool running cells in FIFO order, an in-flight dedup
// layer, and the results cache. Create with NewServer, serve s.Handler(),
// stop with Drain (or Close).
type Server struct {
	cfg     Config
	fs      fsio.FS
	sched   *sim.Pool
	adm     *Admission
	cache   *ResultCache
	ckpts   *sim.CkptCache // nil unless Config.CkptDir is set
	journal *Journal       // nil unless Config.JournalDir is set
	retry   RetryPolicy
	store   *Store
	res     *resolver
	reg     *obs.Registry
	mux     *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	draining   atomic.Bool

	flightMu sync.Mutex
	flights  map[CellKey]*flight

	// saveMu serializes results-cache persistence (the per-job background
	// save vs the final save at drain).
	saveMu sync.Mutex

	jobsSubmitted, jobsRejected, jobsCanceled    atomic.Uint64
	cellsSubmitted, cellsDone, cellsFailed       atomic.Uint64
	cellsCanceled, cellsFromCache, cellsDeduped  atomic.Uint64
	retryRetried, retryRecovered, retryExhausted atomic.Uint64
	retryTransient, retryPermanent               atomic.Uint64
	cacheLoadErr                                 error
}

// NewServer assembles a daemon. The cache file (if configured) is loaded
// best-effort: a corrupt file leaves the cache empty and the error readable
// via CacheLoadErr.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	fs := cfg.FS
	if fs == nil {
		fs = fsio.OS
	}
	s := &Server{
		cfg:     cfg,
		fs:      fs,
		sched:   sim.NewPool(cfg.Workers),
		adm:     NewAdmission(cfg.QueueCap, cfg.Workers),
		cache:   NewResultCacheFS(fs),
		retry:   cfg.Retry.withDefaults(),
		store:   NewStore(),
		res:     newResolver(),
		reg:     obs.NewRegistry(),
		flights: make(map[CellKey]*flight),
	}
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	if cfg.CachePath != "" {
		s.cacheLoadErr = s.cache.LoadFile(cfg.CachePath)
	}
	if cfg.CkptDir != "" {
		s.ckpts = sim.NewCkptCacheFS(cfg.CkptDir, fs)
	}
	if cfg.JournalDir != "" {
		s.journal = OpenJournal(fs, cfg.JournalDir, cfg.MaxCellsPerJob)
	}
	s.registerObs()
	s.routes()
	if s.journal != nil {
		// Replay before serving: incomplete journaled jobs are re-registered
		// under their original IDs and their unresolved cells re-enqueued.
		for _, rj := range s.journal.Resumed() {
			s.resumeJob(rj)
		}
	}
	return s
}

// CacheLoadErr reports the startup cache-load failure, if any.
func (s *Server) CacheLoadErr() error { return s.cacheLoadErr }

// Registry exposes the daemon's obs registry (counters registered at
// construction; Snapshot is safe under concurrent serving).
func (s *Server) Registry() *obs.Registry { return s.reg }

// registerObs wires the daemon's components into the obs registry. All
// registration happens before serving starts, and every closure reads an
// atomic or takes the owning component's lock, so concurrent Snapshot calls
// are race-free.
func (s *Server) registerObs() {
	jobs := s.reg.Scope("serve.jobs")
	jobs.Counter("submitted", s.jobsSubmitted.Load)
	jobs.Counter("rejected", s.jobsRejected.Load)
	jobs.Counter("canceled", s.jobsCanceled.Load)
	jobs.Gauge("stored", func() float64 { return float64(s.store.Len()) })

	cells := s.reg.Scope("serve.cells")
	cells.Counter("submitted", s.cellsSubmitted.Load)
	cells.Counter("done", s.cellsDone.Load)
	cells.Counter("failed", s.cellsFailed.Load)
	cells.Counter("canceled", s.cellsCanceled.Load)
	cells.Counter("from_cache", s.cellsFromCache.Load)
	cells.Counter("deduped", s.cellsDeduped.Load)

	cache := s.reg.Scope("serve.cache")
	cache.Counter("hits", s.cache.Hits)
	cache.Counter("misses", s.cache.Misses)
	cache.Counter("load_errors", s.cache.LoadErrors)
	cache.Counter("saves", s.cache.Saves)
	cache.Counter("save_errors", s.cache.SaveErrors)
	cache.Gauge("entries", func() float64 { return float64(s.cache.Len()) })

	retry := s.reg.Scope("serve.retry")
	retry.Counter("retried", s.retryRetried.Load)
	retry.Counter("recovered", s.retryRecovered.Load)
	retry.Counter("exhausted", s.retryExhausted.Load)
	retry.Counter("transient", s.retryTransient.Load)
	retry.Counter("permanent", s.retryPermanent.Load)

	if s.journal != nil {
		jn := s.reg.Scope("serve.journal")
		jn.Counter("appends", s.journal.Appends)
		jn.Counter("replayed", s.journal.Replayed)
		jn.Counter("truncated", s.journal.Truncated)
		jn.Counter("compactions", s.journal.Compactions)
		jn.Counter("errors", s.journal.Errors)
		jn.Counter("resumed_jobs", s.journal.ResumedJobs)
		jn.Counter("resumed_cells", s.journal.ResumedCells)
		jn.Gauge("size_bytes", func() float64 { return float64(s.journal.Stats().SizeBytes) })
		jn.Gauge("lag_records", func() float64 { return float64(s.journal.Stats().Lag) })
		jn.Gauge("live_jobs", func() float64 { return float64(s.journal.Stats().LiveJobs) })
	}

	if s.ckpts != nil {
		ckpt := s.reg.Scope("serve.ckpt")
		ckpt.Counter("hits", s.ckpts.Hits)
		ckpt.Counter("misses", s.ckpts.Misses)
		ckpt.Counter("stores", s.ckpts.Stores)
		ckpt.Counter("errors", s.ckpts.Errors)
	}

	queue := s.reg.Scope("serve.queue")
	queue.Counter("rejected", s.adm.Rejected)
	queue.Gauge("depth", func() float64 { return float64(s.adm.Depth()) })
	queue.Gauge("capacity", func() float64 { return float64(s.adm.Capacity()) })

	sched := s.reg.Scope("serve.sched")
	sched.Counter("executed", s.sched.Executed)
	sched.Gauge("workers", func() float64 { return float64(s.sched.Workers()) })
	sched.Gauge("queued", func() float64 { return float64(s.sched.Queued()) })
}

// apiError is a submission failure with its HTTP shape: status code, the
// ErrorReply.Kind classification, and the human-readable message.
type apiError struct {
	code       int
	kind       string
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

// faultSpec pairs a parsed fault injection with its attempt bound.
type faultSpec struct {
	fi    *cpu.FaultInjection
	times int
}

// parseFault translates a CellFault into a cpu.FaultInjection.
func parseFault(f CellFault) (*cpu.FaultInjection, error) {
	seq := f.Seq
	if seq == 0 {
		seq = 1000
	}
	fi := &cpu.FaultInjection{}
	switch f.Kind {
	case "panic":
		fi.PanicAtSeq = seq
	case "corrupt-rd":
		fi.CorruptRdSeq = seq
	case "skip-retire":
		fi.SkipRetireSeq = seq
	case "leak-prf":
		fi.LeakPRFSeq = seq
	case "sticky-issue":
		fi.StickySeq = seq
	default:
		return nil, fmt.Errorf("unknown fault kind %q (have panic, corrupt-rd, skip-retire, leak-prf, sticky-issue)", f.Kind)
	}
	return fi, nil
}

// plan validates a job request against the workload, config and fault
// registries and builds its cells in the workloads × configs cross-product
// order that journal records index by, each with its CellKey and injected
// fault; specs maps each workload name to its spec. A request naming an
// unknown workload, config or fault kind still gets its cells, unkeyed,
// alongside the error, so a resumed job can fail each one in place; an empty
// or oversized request gets none.
func (s *Server) plan(req JobRequest) (map[string]sim.Spec, []*Cell, error) {
	total := len(req.Workloads) * len(req.Configs)
	if total == 0 {
		return nil, nil, errors.New("workloads and configs must both be non-empty")
	}
	if total > s.cfg.MaxCellsPerJob {
		return nil, nil, fmt.Errorf("job has %d cells, limit is %d", total, s.cfg.MaxCellsPerJob)
	}
	cells := make([]*Cell, 0, total)
	for _, w := range req.Workloads {
		for _, c := range req.Configs {
			cells = append(cells, &Cell{Workload: w, Config: c, idx: len(cells)})
		}
	}

	specs := make(map[string]sim.Spec, len(req.Workloads))
	hashes := make(map[string]uint64, len(req.Workloads))
	for _, w := range req.Workloads {
		spec, err := sim.SpecByName(w, req.Quick)
		if err != nil {
			return nil, cells, err
		}
		h, err := s.res.hash(w, req.Quick)
		if err != nil {
			return nil, cells, err
		}
		specs[w], hashes[w] = spec, h
	}
	for _, c := range req.Configs {
		if _, err := sim.ConfigByName(c, 0); err != nil {
			return nil, cells, err
		}
	}
	faults := make(map[[2]string]faultSpec, len(req.Faults))
	for _, f := range req.Faults {
		fi, err := parseFault(f)
		if err != nil {
			return nil, cells, err
		}
		faults[[2]string{f.Workload, f.Config}] = faultSpec{fi: fi, times: f.Times}
	}

	flags := ""
	if req.Checks {
		flags += "checks,"
	}
	if req.Lockstep {
		flags += "lockstep,"
	}
	seed := uint64(0)
	if req.Sampled {
		seed = req.Seed
	}
	for _, c := range cells {
		c.Key = CellKey{WorkloadHash: hashes[c.Workload], Config: c.Config, Seed: seed, Sampled: req.Sampled, Flags: flags}
		f := faults[[2]string{c.Workload, c.Config}]
		c.fault, c.faultTimes = f.fi, f.times
	}
	return specs, cells, nil
}

// claimSlots gives an admission slot to each unresolved cell the results
// cache cannot answer (a faulted cell never can) and returns how many it
// gave. Admission is all-or-nothing on this cold count, so a warm
// resubmission of a huge sweep sails through while a cold one waits its turn.
func (s *Server) claimSlots(cells []*Cell) int {
	n := 0
	for _, c := range cells {
		if !c.resolved && (c.fault != nil || !s.cache.Peek(c.Key)) {
			c.slot = true
			n++
		}
	}
	return n
}

// Submit validates a request against the workload and config registries,
// admits it against the queue, and schedules its cells. It returns the
// created job, or an apiError carrying the HTTP status (400 invalid, 429
// over capacity, 503 draining).
func (s *Server) Submit(req JobRequest) (*Job, *apiError) {
	if s.draining.Load() {
		return nil, &apiError{code: http.StatusServiceUnavailable, kind: KindUnavailable, msg: "daemon is draining"}
	}
	// Validate every name before any side effect, so a bad request is a
	// clean 400 with the registry's own message.
	specs, cells, err := s.plan(req)
	if err != nil {
		return nil, &apiError{code: http.StatusBadRequest, kind: KindBadRequest, msg: err.Error()}
	}
	cold := s.claimSlots(cells)
	if !s.adm.TryAdmit(cold) {
		s.jobsRejected.Add(1)
		return nil, &apiError{
			code:       http.StatusTooManyRequests,
			kind:       KindOverloaded,
			msg:        fmt.Sprintf("admission queue full (%d/%d cells in flight, job needs %d)", s.adm.Depth(), s.adm.Capacity(), cold),
			retryAfter: s.adm.RetryAfter(cold),
		}
	}

	job := s.store.Register(s.baseCtx, "", req, cells)
	if s.journal != nil {
		// Journaled (and synced) before the 202 goes out: once the client
		// holds an acknowledgment, the job survives a daemon kill.
		s.journal.Accept(job.ID, req)
	}
	s.jobsSubmitted.Add(1)
	s.cellsSubmitted.Add(uint64(len(cells)))

	s.schedule(job, specs)
	return job, nil
}

// schedule queues a new or resumed job's unresolved cells on the pool. A
// results-cache hit resolves at once, a fault-injected cell runs privately
// under its job's context, and every other cell joins (or opens) the flight
// of its key. A sampled job on a daemon with a checkpoint cache queues each
// workload's cell tasks as one pool task running them in request order, so
// the later configs measure from the checkpoint artifact the first one
// stored instead of rebuilding it on another worker. Flights, retry,
// deadlines, journal records and admission stay per cell.
func (s *Server) schedule(job *Job, specs map[string]sim.Spec) {
	rows := job.Req.Sampled && s.ckpts != nil
	var tasks []func()
	rowTask := make(map[string]int) // workload -> its task's index in tasks
	add := func(w string, task func()) {
		if i, ok := rowTask[w]; ok {
			prev := tasks[i]
			tasks[i] = func() { prev(); task() }
			return
		}
		if rows {
			rowTask[w] = len(tasks)
		}
		tasks = append(tasks, task)
	}
	for _, c := range job.Cells {
		c.mu.Lock()
		resolved := c.resolved
		c.mu.Unlock()
		switch {
		case resolved:
		case c.fault != nil:
			// Faulted cells are private to their job: no dedup, no cache.
			add(c.Workload, s.faultTask(job, c, specs[c.Workload]))
		default:
			if r, ok := s.cache.Get(c.Key); ok {
				s.cellsFromCache.Add(1)
				s.finishCell(c, r, nil, true)
				continue
			}
			if task := s.joinFlight(c, specs[c.Workload], job.Req); task != nil {
				add(c.Workload, task)
			} else {
				s.cellsDeduped.Add(1)
			}
		}
	}
	if err := s.sched.Submit(tasks...); err != nil {
		// Shutdown raced the submission: resolve what was scheduled-to-be as
		// canceled so the job still terminates.
		for _, c := range job.Cells {
			s.finishCell(c, nil, fmt.Errorf("%w: %v", sim.ErrCanceled, err), false)
		}
	}
}

// joinFlight attaches a cell to the in-flight execution of its key, creating
// the flight if none exists. The non-nil return is the execution task for a
// newly created flight (the caller schedules it); nil means the cell was
// batched onto an existing flight.
func (s *Server) joinFlight(c *Cell, spec sim.Spec, req JobRequest) func() {
	s.flightMu.Lock()
	fl, ok := s.flights[c.Key]
	isNew := !ok
	if isNew {
		fctx, fcancel := context.WithCancelCause(s.baseCtx)
		fl = &flight{key: c.Key, ctx: fctx, cancel: fcancel}
		s.flights[c.Key] = fl
	}
	fl.refs++
	fl.cells = append(fl.cells, c)
	started := fl.started
	s.flightMu.Unlock()
	c.fl = fl
	if started {
		c.setRunning()
	}
	if !isNew {
		return nil
	}
	return func() {
		onAttempt := func(attempt int) {
			s.flightMu.Lock()
			fl.started = true
			running := append([]*Cell(nil), fl.cells...)
			s.flightMu.Unlock()
			for _, rc := range running {
				rc.setRunning()
				rc.noteAttempt(attempt)
				s.journalCell(rc, CellRunning, attempt, "", false)
			}
		}
		start := time.Now()
		res, err, out := s.runWithRetry(fl.ctx, spec, fl.key.Config, req, nil, 0, onAttempt)
		s.adm.Observe(time.Since(start))
		if err == nil {
			s.cache.Put(fl.key, &res)
		}
		s.completeFlight(fl, &res, err, out)
	}
}

// completeFlight resolves every subscribed cell and retires the flight. The
// attempt outcome fans out to every subscriber: a shared execution's retry
// provenance belongs to each cell that waited on it.
func (s *Server) completeFlight(fl *flight, res *sim.Result, err error, out attemptOutcome) {
	s.flightMu.Lock()
	fl.done = true
	if s.flights[fl.key] == fl {
		delete(s.flights, fl.key)
	}
	cells := fl.cells
	fl.cells = nil
	s.flightMu.Unlock()
	for _, c := range cells {
		c.noteAttempt(out.attempts)
		if len(out.retryErrs) > 0 {
			c.setRetryErrs(out.retryErrs)
		}
		s.finishCell(c, res, err, false)
	}
}

// unrefFlight drops one cell's interest; the last cancellation aborts the
// execution (nobody wants the answer anymore).
func (s *Server) unrefFlight(fl *flight) {
	s.flightMu.Lock()
	fl.refs--
	abort := fl.refs == 0 && !fl.done
	if abort && s.flights[fl.key] == fl {
		delete(s.flights, fl.key)
	}
	s.flightMu.Unlock()
	if abort {
		fl.cancel(errors.New("serve: every interested job canceled"))
	}
}

// faultTask runs a fault-injected cell privately under its job's context.
func (s *Server) faultTask(j *Job, c *Cell, spec sim.Spec) func() {
	return func() {
		onAttempt := func(attempt int) {
			c.setRunning()
			c.noteAttempt(attempt)
			s.journalCell(c, CellRunning, attempt, "", false)
		}
		start := time.Now()
		res, err, out := s.runWithRetry(j.ctx, spec, c.Config, j.Req, c.fault, c.faultTimes, onAttempt)
		s.adm.Observe(time.Since(start))
		if len(out.retryErrs) > 0 {
			c.setRetryErrs(out.retryErrs)
		}
		s.finishCell(c, &res, err, false)
	}
}

// execCell is the one place a daemon cell meets the sim library: the full
// cycle-accurate per-cell runner (bit-identical to a RunMatrixOpt cell) or
// the SimPoint-sampled pipeline, both under the flight/job context and with
// per-cell panic/stall containment.
func (s *Server) execCell(ctx context.Context, spec sim.Spec, cfgName string, req JobRequest, fault *cpu.FaultInjection) (sim.Result, error) {
	opt := sim.MatrixOptions{Checks: req.Checks, Lockstep: req.Lockstep, CrashDir: s.cfg.CrashDir, Faults: fault}
	if req.Sampled {
		// Point measurement stays serial per cell — the pool already
		// keeps every core busy across cells — but the checkpoint cache is
		// shared daemon-wide, so one workload's profile pass feeds every
		// configuration, job, and (with CkptDir persisted) daemon restart.
		opt.Sample = &sim.SampleConfig{Seed: req.Seed, Ckpts: s.ckpts}
	}
	return sim.RunCellCtx(ctx, spec, cfgName, opt)
}

// journalCell appends one cell transition when the journal is on; the cell's
// journal identity is (job ID, cross-product index).
func (s *Server) journalCell(c *Cell, state string, attempt int, errMsg string, perm bool) {
	if s.journal == nil {
		return
	}
	s.journal.Cell(c.job.ID, c.idx, state, attempt, errMsg, perm)
}

// jobFinished journals a job's terminal transition and kicks off a background
// results-cache persist, bounding how much a later SIGKILL can force the
// successor to re-simulate.
func (s *Server) jobFinished(j *Job) {
	if s.journal != nil {
		s.journal.JobDone(j.ID)
	}
	if s.cfg.CachePath != "" {
		go func() {
			s.saveMu.Lock()
			defer s.saveMu.Unlock()
			_ = s.cache.SaveFile(s.cfg.CachePath) // failures are counted on the cache
		}()
	}
}

// finishCell resolves a cell exactly once, releasing its admission slot and
// advancing its job's completion count.
func (s *Server) finishCell(c *Cell, res *sim.Result, err error, cached bool) {
	state := CellDone
	if err != nil {
		if errors.Is(err, sim.ErrCanceled) {
			state = CellCanceled
		} else {
			state = CellFailed
		}
	}
	first, hadSlot := c.resolve(state, res, err, cached)
	if !first {
		return
	}
	var emsg string
	perm := false
	if err != nil {
		emsg = err.Error()
		// A failed cell whose error is not transient is deterministically
		// doomed: journaled permanent, sticky across restarts.
		perm = state == CellFailed && !sim.IsTransient(err)
	}
	s.journalCell(c, state, c.attemptCount(), emsg, perm)
	if hadSlot {
		s.adm.Release(1)
	}
	switch state {
	case CellDone:
		s.cellsDone.Add(1)
	case CellFailed:
		s.cellsFailed.Add(1)
	case CellCanceled:
		s.cellsCanceled.Add(1)
	}
	if c.job.cellResolved() {
		s.jobFinished(c.job)
	}
}

// Cancel cancels a job: unresolved cells resolve as canceled immediately,
// the job context is canceled (stopping fault cells), and each affected
// flight loses one subscriber — a flight whose every subscriber canceled is
// aborted mid-run. Returns false if the job had already been canceled.
func (s *Server) Cancel(j *Job) bool {
	if !j.markCanceled() {
		return false
	}
	s.jobsCanceled.Add(1)
	j.cancel(errors.New("serve: job canceled"))
	for _, c := range j.Cells {
		fl := c.fl
		first, hadSlot := c.resolve(CellCanceled, nil, nil, false)
		if !first {
			continue
		}
		s.journalCell(c, CellCanceled, c.attemptCount(), "", false)
		if hadSlot {
			s.adm.Release(1)
		}
		s.cellsCanceled.Add(1)
		if c.job.cellResolved() {
			s.jobFinished(c.job)
		}
		if fl != nil {
			s.unrefFlight(fl)
		}
	}
	return true
}

// resumeJob re-registers one incomplete journaled job at boot under its
// original ID, planning its cells as Submit does and folding in each cell's
// journaled state. Journaled terminal failures and cancellations are sticky;
// every other cell is re-enqueued — idempotently, since a re-run either hits
// the persisted results cache or deterministically recomputes the same
// numbers. Recovered cells bypass admission capacity (ForceAdmit): their 202
// was already given, so they outrank new arrivals.
func (s *Server) resumeJob(rj ResumedJob) {
	specs, cells, err := s.plan(rj.Req)
	for i, c := range cells {
		var rc ResumedCell
		if i < len(rj.Cells) {
			rc = rj.Cells[i]
		}
		c.attempts = rc.Attempt
		switch {
		case rc.State == CellFailed || rc.State == CellCanceled:
			// Journaled terminal outcome: sticky across the restart.
			c.state, c.resolved = rc.State, true
			if rc.Error != "" {
				c.err = errors.New(rc.Error)
			}
		case err != nil:
			// The journaled request no longer validates (the registry
			// changed across the restart): fail the cell, don't re-run.
			c.state, c.resolved = CellFailed, true
			c.err = fmt.Errorf("resume: %w", err)
		}
	}
	s.adm.ForceAdmit(s.claimSlots(cells))
	job := s.store.Register(s.baseCtx, rj.ID, rj.Req, cells)
	select {
	case <-job.Done():
		// Every cell was already terminal (or the resume failed validation):
		// journal the terminal transition so compaction retires the job.
		s.jobFinished(job)
		return
	default:
	}

	s.schedule(job, specs)
}

// Report builds the BENCH_report-schema view of every completed cell the
// daemon has served: one "serve.cells" figure with a row per distinct
// (profile, sampled, workload, config), newest result winning, plus geomean
// speedups per configuration against the base cells of the same profile.
func (s *Server) Report() *obs.BenchReport {
	type rk struct {
		quick, sampled bool
		w, c           string
	}
	results := make(map[rk]*sim.Result)
	for _, j := range s.store.Jobs() {
		for _, c := range j.Cells {
			cr := c.result()
			if cr.State == CellDone && cr.Result != nil {
				results[rk{j.Req.Quick, j.Req.Sampled, c.Workload, c.Config}] = cr.Result
			}
		}
	}
	keys := make([]rk, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.quick != b.quick {
			return !a.quick
		}
		if a.sampled != b.sampled {
			return !a.sampled
		}
		if a.w != b.w {
			return a.w < b.w
		}
		return a.c < b.c
	})

	rep := obs.NewBenchReport(false)
	rows := make([]map[string]any, 0, len(keys))
	profile := func(k rk) string {
		p := "full"
		if k.quick {
			p = "quick"
		}
		if k.sampled {
			p += ".sampled"
		}
		return p
	}
	for _, k := range keys {
		r := results[k]
		rows = append(rows, map[string]any{
			"profile":  profile(k),
			"workload": k.w,
			"config":   k.c,
			"cycles":   r.Cycles,
			"retired":  r.Retired,
			"ipc":      r.IPC(),
			"mpki":     r.MPKI(),
		})
	}
	rep.AddFigure("serve.cells", rows)

	// Geomean speedups vs the same profile's base cells.
	type gk struct {
		profile, config string
	}
	logsum := make(map[gk]float64)
	n := make(map[gk]int)
	for _, k := range keys {
		if k.c == sim.CfgBase {
			continue
		}
		base, ok := results[rk{k.quick, k.sampled, k.w, sim.CfgBase}]
		if !ok || base.Cycles == 0 || results[k].Cycles == 0 {
			continue
		}
		g := gk{profile(k), k.c}
		logsum[g] += math.Log(float64(base.Cycles) / float64(results[k].Cycles))
		n[g]++
	}
	for g, sum := range logsum {
		rep.AddGeomean(g.profile+"."+g.config, math.Exp(sum/float64(n[g])))
	}
	return rep
}

// Healthz snapshots the daemon's liveness view.
func (s *Server) Healthz() Healthz {
	state := "serving"
	if s.draining.Load() {
		state = "draining"
	}
	h := Healthz{
		OK:       true,
		State:    state,
		Workers:  s.sched.Workers(),
		Jobs:     s.store.Len(),
		QueueCap: s.adm.Capacity(),
		Queued:   s.adm.Depth(),
		Retry: RetryStats{
			Retried:   s.retryRetried.Load(),
			Recovered: s.retryRecovered.Load(),
			Exhausted: s.retryExhausted.Load(),
			Transient: s.retryTransient.Load(),
			Permanent: s.retryPermanent.Load(),
		},
	}
	if s.journal != nil {
		js := s.journal.Stats()
		h.Journal = &js
	}
	return h
}

// Drain shuts the daemon down gracefully: new submissions get 503, every
// already-admitted cell runs to completion (draining the pool), and the
// results cache is persisted. If ctx expires first, the remaining cells'
// contexts are canceled — they resolve as canceled within milliseconds — and
// the drain completes anyway. Safe to call once; Close is Drain without a
// deadline.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.sched.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel(fmt.Errorf("serve: drain deadline: %w", context.Cause(ctx)))
		<-done
	}
	s.baseCancel(errors.New("serve: daemon stopped"))
	if s.journal != nil {
		_ = s.journal.Close()
	}
	if s.cfg.CachePath != "" {
		s.saveMu.Lock()
		defer s.saveMu.Unlock()
		return s.cache.SaveFile(s.cfg.CachePath)
	}
	return nil
}

// Close drains with no deadline.
func (s *Server) Close() error { return s.Drain(context.Background()) }
