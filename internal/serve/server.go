package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
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
	// QueueCap bounds the admission queue in cells (0 = 1024). It also
	// bounds one job's size: a job with more cells than this can never be
	// admitted and is rejected with 400 rather than 429.
	QueueCap int
	// CachePath, when set, names the results log: replayed at NewServer and
	// appended to as cells complete, so a restarted daemon starts warm.
	CachePath string
	// CrashDir receives minimized crash dumps for panicking cells (empty
	// means $PHELPS_CRASH_DIR, falling back to "crashes"; see
	// sim.MatrixOptions).
	CrashDir string
	// CkptDir, when set, roots a persistent sim.CkptCache for sampled cells:
	// the SimPoint profile/checkpoint passes run once per workload ever, and
	// their product is reused across cells, jobs, and daemon restarts.
	CkptDir string
	// JournalDir, when set, roots the write-ahead job journal: accepted jobs
	// are journaled before the 202 goes out, and a restarted daemon replays
	// the journal and finishes incomplete jobs under their original IDs.
	JournalDir string
	// CellDeadline, when set, bounds each cell's run in wall-clock time; a
	// cell that misses it fails (0 = unbounded).
	CellDeadline time.Duration
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
	return c
}

// flight is one deduplicated cell execution, and the only way a cell the
// results cache cannot answer runs: every job cell with the same CellKey
// subscribes to the same flight, and the flight runs once under its own
// context. Flights are refcounted by interested cells; when every
// subscriber's job cancels, the flight's context is canceled too (nobody
// wants the answer anymore), and a completed flight's context is canceled
// with errFinished.
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
	sched   *sim.Pool
	adm     *Admission
	cache   *ResultCache
	ckpts   *sim.CkptCache // nil unless Config.CkptDir is set
	journal *Journal       // nil unless Config.JournalDir is set
	store   *Store
	res     *resolver
	reg     *obs.Registry
	mux     *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	draining   atomic.Bool

	// faults, when set, picks the bug injected into each run of a
	// (workload, config) cell; tests set it before the first submission
	// to exercise containment.
	faults func(workload, config string) *cpu.FaultInjection

	flightMu sync.Mutex
	flights  map[CellKey]*flight

	// reported is the newest done summary per report row (see Report).
	reportMu sync.Mutex
	reported map[reportKey]Summary

	jobsSubmitted, jobsRejected, jobsCanceled   atomic.Uint64
	cellsSubmitted, cellsDone, cellsFailed      atomic.Uint64
	cellsCanceled, cellsFromCache, cellsDeduped atomic.Uint64
	cacheLoadErr                                error
}

// NewServer assembles a daemon. The results log (if configured) is replayed
// best-effort: a damaged file keeps the records before the damage and leaves
// the error readable via CacheLoadErr.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sched:    sim.NewPool(cfg.Workers),
		adm:      NewAdmission(cfg.QueueCap, cfg.Workers),
		cache:    NewResultCacheFS(cfg.FS),
		store:    NewStore(),
		res:      newResolver(),
		reg:      obs.NewRegistry(),
		flights:  make(map[CellKey]*flight),
		reported: make(map[reportKey]Summary),
	}
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	if cfg.CachePath != "" {
		s.cacheLoadErr = s.cache.Open(cfg.CachePath)
	}
	if cfg.CkptDir != "" {
		s.ckpts = sim.NewCkptCacheFS(cfg.CkptDir, cfg.FS)
	}
	if cfg.JournalDir != "" {
		s.journal = OpenJournal(cfg.FS, cfg.JournalDir, cfg.QueueCap)
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
	cache.Gauge("resident", func() float64 { return float64(s.cache.Resident()) })

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
		ckpt.Counter("profile_hits", s.ckpts.ProfileHits)
		ckpt.Counter("profile_misses", s.ckpts.ProfileMisses)
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

// plan validates a job request against the workload and config registries
// and builds its cells in the workloads × configs cross-product order that
// journal records index by, each with its CellKey; specs maps each workload
// name to its spec. A request naming an unknown workload or config still
// gets its cells, unkeyed, alongside the error, so a resumed job can fail
// each one in place; an empty or oversized request gets none.
func (s *Server) plan(req JobRequest) (map[string]sim.Spec, []*Cell, error) {
	total := len(req.Workloads) * len(req.Configs)
	if total == 0 {
		return nil, nil, errors.New("workloads and configs must both be non-empty")
	}
	if total > s.cfg.QueueCap {
		return nil, nil, fmt.Errorf("job has %d cells, limit is %d", total, s.cfg.QueueCap)
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

	flags := ""
	if req.Checks {
		flags += "checks,"
	}
	if req.Lockstep {
		flags += "lockstep,"
	}
	// A sampled cell is keyed by the seed it runs with, so seed 0 and the
	// default seed it stands for share one flight and one cache entry.
	seed := uint64(0)
	if req.Sampled {
		seed = cmp.Or(req.Seed, sim.DefaultSampleSeed)
	}
	for _, c := range cells {
		c.Key = CellKey{WorkloadHash: hashes[c.Workload], Config: c.Config, Seed: seed, Sampled: req.Sampled, Flags: flags}
	}
	return specs, cells, nil
}

// claimSlots gives an admission slot to each unresolved cell the results
// cache cannot answer and returns how many it gave. Admission is
// all-or-nothing on this cold count, so a warm resubmission of a huge sweep
// sails through while a cold one waits its turn.
func (s *Server) claimSlots(cells []*Cell) int {
	n := 0
	for _, c := range cells {
		if !c.resolved && !s.cache.Peek(c.Key) {
			c.slot = true
			n++
		}
	}
	return n
}

// Submit validates a request against the workload and config registries,
// admits it against the queue, schedules its cells, and only then publishes
// the job, so a DELETE can never reach a cell before its flight is set. It
// returns the created job, or an apiError carrying the HTTP status (400
// invalid, 429 over capacity, 503 draining).
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

	job := s.store.Register("", req, cells)
	if s.journal != nil {
		// Journaled (and synced) before the 202 goes out: once the client
		// holds an acknowledgment, the job survives a daemon kill.
		s.journal.Accept(job.ID, req)
	}
	s.jobsSubmitted.Add(1)
	s.cellsSubmitted.Add(uint64(len(cells)))

	s.schedule(job, specs)
	s.store.Publish(job)
	return job, nil
}

// schedule queues a new or resumed job's unresolved cells on the pool. A
// results-cache hit resolves at once, and every other cell joins (or opens)
// the flight of its key. A sampled job on a daemon with a checkpoint cache
// queues each workload's cell tasks as one pool task running them in
// request order, so the later configs measure from the checkpoint artifact
// the first one stored instead of rebuilding it on another worker. Flights,
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
		if resolved {
			continue
		}
		if sum, ok := s.cache.Get(c.Key); ok {
			s.cellsFromCache.Add(1)
			s.finishCell(c, sum, nil, true)
			continue
		}
		if task := s.joinFlight(c, specs[c.Workload], job.Req); task != nil {
			add(c.Workload, task)
		} else {
			s.cellsDeduped.Add(1)
		}
	}
	if err := s.sched.Submit(tasks...); err != nil {
		// Shutdown raced the submission: resolve what was scheduled-to-be as
		// canceled so the job still terminates.
		for _, c := range job.Cells {
			s.finishCell(c, Summary{}, fmt.Errorf("%w: %v", sim.ErrCanceled, err), false)
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
	c.fl = fl
	started := fl.started
	s.flightMu.Unlock()
	if started {
		c.setRunning()
	}
	if !isNew {
		return nil
	}
	return func() {
		s.flightMu.Lock()
		fl.started = true
		for _, rc := range fl.cells {
			rc.setRunning()
		}
		s.flightMu.Unlock()
		start := time.Now()
		res, err := s.execCell(fl.ctx, spec, fl.key.Config, req)
		s.adm.Observe(time.Since(start))
		sum := summarize(&res)
		if err == nil {
			sum = s.cache.Put(fl.key, &res)
		}
		s.completeFlight(fl, sum, err)
	}
}

// errFinished is the cause a flight's context is canceled with once it has
// finished. A context derived from the daemon's base context stays in the
// base context's children until it is canceled, so one left live would be
// kept for the life of the daemon.
var errFinished = errors.New("serve: finished")

// completeFlight resolves every subscribed cell with the flight's outcome
// and retires the flight, releasing its context.
func (s *Server) completeFlight(fl *flight, sum Summary, err error) {
	s.flightMu.Lock()
	fl.done = true
	if s.flights[fl.key] == fl {
		delete(s.flights, fl.key)
	}
	cells := fl.cells
	fl.cells = nil
	s.flightMu.Unlock()
	for _, c := range cells {
		s.finishCell(c, sum, err, false)
	}
	fl.cancel(errFinished)
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

// errCellDeadline is the cancellation cause installed by the per-cell
// deadline, distinguishing it from a job cancel or daemon shutdown.
var errCellDeadline = errors.New("serve: per-cell deadline exceeded")

// execCell is the one place a daemon cell meets the sim library: the full
// cycle-accurate per-cell runner (bit-identical to a RunMatrixOpt cell) or
// the SimPoint-sampled pipeline, both under the flight's context and with
// per-cell panic/stall containment. A cell is a pure function of its key,
// so it runs once: a failure would recur on every rerun. A cell that misses
// Config.CellDeadline fails with errCellDeadline.
func (s *Server) execCell(ctx context.Context, spec sim.Spec, cfgName string, req JobRequest) (sim.Result, error) {
	opt := sim.MatrixOptions{Checks: req.Checks, Lockstep: req.Lockstep, CrashDir: s.cfg.CrashDir}
	if s.faults != nil {
		opt.Faults = s.faults(spec.Name, cfgName)
	}
	if req.Sampled {
		// Point measurement stays serial per cell — the pool already
		// keeps every core busy across cells — but the checkpoint cache is
		// shared daemon-wide: an artifact feeds every cell, job and (with
		// CkptDir persisted) daemon restart under its key, and a workload's
		// profile pass every seed and predictor the daemon samples it at.
		opt.Sample = &sim.SampleConfig{Seed: req.Seed, Ckpts: s.ckpts}
	}
	if s.cfg.CellDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.cfg.CellDeadline, errCellDeadline)
		defer cancel()
	}
	res, err := sim.RunCellCtx(ctx, spec, cfgName, opt)
	if errors.Is(err, sim.ErrCanceled) && errors.Is(context.Cause(ctx), errCellDeadline) {
		// The deadline fired while the flight was still wanted: the cell
		// failed, nobody canceled it.
		err = fmt.Errorf("%w after %v", errCellDeadline, s.cfg.CellDeadline)
	}
	return res, err
}

// jobFinished fsyncs the results log, so a finished job's results survive a
// host crash (each was appended before its cell resolved, so they already
// survive a SIGKILL), and journals the job's terminal transition.
func (s *Server) jobFinished(j *Job) {
	s.cache.Sync()
	if s.journal != nil {
		s.journal.JobDone(j.ID)
	}
}

// finishCell resolves a cell with the outcome of its run, or its cache hit:
// done, or failed or canceled by err.
func (s *Server) finishCell(c *Cell, sum Summary, err error, cached bool) {
	state := CellDone
	if err != nil {
		if errors.Is(err, sim.ErrCanceled) {
			state = CellCanceled
		} else {
			state = CellFailed
		}
	}
	s.resolveCell(c, state, sum, err, cached)
}

// resolveCell resolves a cell exactly once: it journals the transition
// under the cell's journal identity (job ID, cross-product index), releases
// the cell's admission slot, counts it, records a done cell's summary for
// the report, and finishes its job on the last one. It returns the flight
// the cell had subscribed to and whether this call resolved the cell.
func (s *Server) resolveCell(c *Cell, state string, sum Summary, err error, cached bool) (*flight, bool) {
	first, hadSlot, fl := c.resolve(state, sum, err, cached)
	if !first {
		return nil, false
	}
	if s.journal != nil {
		var emsg string
		if err != nil {
			emsg = err.Error()
		}
		s.journal.Cell(c.job.ID, c.idx, state, emsg)
	}
	if hadSlot {
		s.adm.Release(1)
	}
	switch state {
	case CellDone:
		s.cellsDone.Add(1)
		req := c.job.Req
		s.reportMu.Lock()
		s.reported[reportKey{req.Quick, req.Sampled, c.Workload, c.Config}] = sum
		s.reportMu.Unlock()
	case CellFailed:
		s.cellsFailed.Add(1)
	case CellCanceled:
		s.cellsCanceled.Add(1)
	}
	if c.job.cellResolved() {
		s.jobFinished(c.job)
	}
	return fl, true
}

// Cancel cancels a job: unresolved cells resolve as canceled immediately,
// and each one's flight loses a subscriber — a flight whose every
// subscriber canceled is aborted mid-run. Returns false if the job had
// already been canceled.
func (s *Server) Cancel(j *Job) bool {
	if !j.markCanceled() {
		return false
	}
	s.jobsCanceled.Add(1)
	for _, c := range j.Cells {
		if fl, _ := s.resolveCell(c, CellCanceled, Summary{}, nil, false); fl != nil {
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
	job := s.store.Register(rj.ID, rj.Req, cells)
	select {
	case <-job.Done():
		// Every cell was already terminal (or the resume failed validation):
		// journal the terminal transition so compaction retires the job.
		s.jobFinished(job)
	default:
		s.schedule(job, specs)
	}
	s.store.Publish(job)
}

// reportKey is one row of the report: a (profile, workload, config).
type reportKey struct {
	quick, sampled bool
	w, c           string
}

// Report builds the BENCH_report-schema view of every completed cell the
// daemon has served: one "serve.cells" figure with a row per distinct
// (profile, sampled, workload, config), newest result winning, plus geomean
// speedups per configuration against the base cells of the same profile.
// It reads the summaries resolveCell keeps, not the job store.
func (s *Server) Report() *obs.BenchReport {
	s.reportMu.Lock()
	results := maps.Clone(s.reported)
	s.reportMu.Unlock()
	keys := make([]reportKey, 0, len(results))
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
	profile := func(k reportKey) string {
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
		base, ok := results[reportKey{k.quick, k.sampled, k.w, sim.CfgBase}]
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
	}
	if s.journal != nil {
		js := s.journal.Stats()
		h.Journal = &js
	}
	return h
}

// Drain shuts the daemon down gracefully: new submissions get 503, every
// already-admitted cell runs to completion (draining the pool), and the
// results log is synced and closed. If ctx expires first, the remaining
// cells' contexts are canceled — they resolve as canceled within
// milliseconds — and the drain completes anyway. Safe to call once; Close is
// Drain without a deadline.
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
	return s.cache.Close()
}

// Close drains with no deadline.
func (s *Server) Close() error { return s.Drain(context.Background()) }
