// Package serve is the phelpsd experiment daemon: a long-running HTTP/JSON
// service that accepts experiment jobs (workload × configuration × sample-
// mode matrices), validates them against the sim config and workload
// registries, and runs their cells on one FIFO worker pool (sim.Pool).
//
// The daemon turns the library pieces — parallel RunMatrixCtx with per-cell
// ErrPanic/ErrStall containment, ConfigByName/SpecByName, SampledRunCtx, and
// the obs registry's JSON exporters — into a multi-tenant service:
//
//   - a bounded admission-control queue rejects overload with 429 and a
//     Retry-After estimate instead of queueing unboundedly;
//   - identical in-flight cells are batched onto one execution (every
//     submitter subscribes to the same flight), and completed cells land in
//     a results cache keyed by (workload hash, config name, seed,
//     sample-mode), so repeated sweeps are mostly warm;
//   - one crashing or wedged cell fails only itself (the per-cell recover
//     and watchdog turn it into ErrPanic/ErrStall), never the daemon;
//   - SIGTERM drains running cells and persists the cache.
//
// See DESIGN.md · phelpsd service for the full semantics, cmd/phelpsd for
// the binary, and cmd/phelps -submit for the client.
package serve

import (
	"time"

	"phelps/internal/obs"
	"phelps/internal/sim"
)

// API is the URL prefix of the current API generation.
const API = "/v1"

// Version is the daemon build version reported by GET /v1/version.
const Version = "0.9.0"

// Every /v1 endpoint replies with a documented status code, and every
// non-2xx body is an ErrorReply JSON envelope:
//
//	POST   /v1/jobs             202 Accepted (Location: /v1/jobs/{id})
//	                            400 bad_request  (malformed body, unknown
//	                                workload/config/fault name, oversized job)
//	                            429 overloaded   (admission queue full;
//	                                Retry-After header + retry_after_sec)
//	                            503 unavailable  (daemon draining)
//	GET    /v1/jobs/{id}        200 · 404 not_found
//	GET    /v1/jobs/{id}/result 200 · 404 not_found
//	DELETE /v1/jobs/{id}        200 (idempotent) · 404 not_found
//	POST   /v1/explore          202 Accepted (Location: /v1/explore/{id})
//	                            400 bad_request  (malformed body)
//	                            429 overloaded   (an explore is already
//	                                running; Retry-After + retry_after_sec)
//	                            503 unavailable  (daemon draining)
//	GET    /v1/explore/{id}     200 · 404 not_found
//	GET    /v1/report           200
//	GET    /v1/obs              200
//	GET    /v1/workloads        200
//	GET    /v1/configs          200
//	GET    /v1/healthz          200
//	GET    /v1/version          200
//
// Requests that never reach a handler — unknown paths and wrong methods,
// answered by the mux itself — are rewritten by the Handler wrapper into the
// same envelope (404 not_found, 405 bad_request).

// Error kinds carried in ErrorReply.Kind: a stable, machine-matchable
// classification of the failure, coarser than the message and finer than the
// status code.
const (
	KindBadRequest  = "bad_request" // malformed or unsatisfiable request
	KindNotFound    = "not_found"   // no such job or route
	KindOverloaded  = "overloaded"  // admission queue full; retry later
	KindUnavailable = "unavailable" // daemon draining for shutdown
	KindInternal    = "internal"    // unexpected server-side failure
)

// JobRequest is the POST /v1/jobs body: the cross product of Workloads and
// Configs becomes the job's cells.
type JobRequest struct {
	// Workloads are registered workload names (GET /v1/workloads lists them).
	Workloads []string `json:"workloads"`
	// Configs are registered configuration names (GET /v1/configs).
	Configs []string `json:"configs"`
	// Quick selects the reduced workload sizes (the unit-test profile).
	Quick bool `json:"quick,omitempty"`
	// Sampled runs every cell through the SimPoint-sampled pipeline instead
	// of the full cycle-accurate run.
	Sampled bool `json:"sampled,omitempty"`
	// Seed drives the sampled pipeline's clustering (0 = the sim default).
	// Part of the result-cache key.
	Seed uint64 `json:"seed,omitempty"`
	// Checks/Lockstep enable the invariant audit and the lockstep retirement
	// oracle on every cell (see sim.Config).
	Checks   bool `json:"checks,omitempty"`
	Lockstep bool `json:"lockstep,omitempty"`
	// Faults injects deliberate bugs into matching cells (containment tests
	// only). Faulted cells are never deduplicated or cached.
	Faults []CellFault `json:"faults,omitempty"`
}

// CellFault targets one (workload, config) cell with an injected fault.
type CellFault struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	// Kind is one of "panic", "corrupt-rd", "skip-retire", "leak-prf",
	// "sticky-issue" (see cpu.FaultInjection).
	Kind string `json:"kind"`
	// Seq is the dynamic sequence number to strike (0 = 1000).
	Seq uint64 `json:"seq,omitempty"`
	// Times bounds the injection to the cell's first N attempts (0 = every
	// attempt). With Times=1 and a transient fault kind the first execution
	// fails and the retry succeeds — the shape of a true transient.
	Times int `json:"times,omitempty"`
}

// Cell states reported by the API.
const (
	CellPending  = "pending"
	CellRunning  = "running"
	CellDone     = "done"
	CellFailed   = "failed"
	CellCanceled = "canceled"
)

// Job states reported by the API.
const (
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed" // finished, at least one cell failed
	JobCanceled = "canceled"
)

// JobStatus is the GET /v1/jobs/{id} reply (and the POST /v1/jobs reply).
type JobStatus struct {
	ID      string    `json:"id"`
	State   string    `json:"state"`
	Created time.Time `json:"created"`
	Quick   bool      `json:"quick,omitempty"`
	Sampled bool      `json:"sampled,omitempty"`
	Total   int       `json:"total_cells"`
	Done    int       `json:"done_cells"`
	Cached  int       `json:"cached_cells"`
	Failed  int       `json:"failed_cells"`
	// Retried counts cells that needed more than one execution attempt.
	Retried int          `json:"retried_cells,omitempty"`
	Cells   []CellStatus `json:"cells"`
}

// CellStatus is one cell's live view inside a JobStatus.
type CellStatus struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	State    string `json:"state"`
	Cached   bool   `json:"cached,omitempty"`
	// Attempts counts this cell's executions (retry provenance; 0 until the
	// first attempt starts, >1 means the retry policy re-ran it).
	Attempts int     `json:"attempts,omitempty"`
	Error    string  `json:"error,omitempty"`
	Cycles   uint64  `json:"cycles,omitempty"`
	Retired  uint64  `json:"retired,omitempty"`
	IPC      float64 `json:"ipc,omitempty"`
	MPKI     float64 `json:"mpki,omitempty"`
}

// JobResult is the GET /v1/jobs/{id}/result reply: the full sim.Result per
// completed cell (the summary numbers in JobStatus are derived from these).
type JobResult struct {
	ID    string       `json:"id"`
	State string       `json:"state"`
	Cells []CellResult `json:"cells"`
}

// CellResult carries one cell's full simulation result.
type CellResult struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	State    string `json:"state"`
	Cached   bool   `json:"cached,omitempty"`
	// Attempts and RetryErrors are the cell's retry provenance: how many
	// executions it took and what each pre-final attempt returned.
	Attempts    int         `json:"attempts,omitempty"`
	RetryErrors []string    `json:"retry_errors,omitempty"`
	Error       string      `json:"error,omitempty"`
	Result      *sim.Result `json:"result,omitempty"`
}

// ExploreRequest is the POST /v1/explore body: a model-triaged design-space
// search (sim.RunExplore) over the daemon's explore space. Explores are
// heavyweight — the daemon runs at most one at a time (429 otherwise) — and
// are not journaled: a daemon restart loses an in-flight explore, and the
// client resubmits.
type ExploreRequest struct {
	// Anchors is the cycle-simulated training-set size in configurations
	// (0 = the sim default, ~1/10 of the space).
	Anchors int `json:"anchors,omitempty"`
	// MaxFrontier caps the measured predicted-Pareto set (0 = default).
	MaxFrontier int `json:"max_frontier,omitempty"`
	// Exhaustive additionally cycle-simulates the whole space for
	// validation (expensive by design).
	Exhaustive bool `json:"exhaustive,omitempty"`
}

// Explore states reported by the API.
const (
	ExploreRunning  = "running"
	ExploreDone     = "done"
	ExploreFailed   = "failed"
	ExploreCanceled = "canceled"
)

// ExploreStatus is the POST /v1/explore and GET /v1/explore/{id} reply; the
// report appears once the run is done.
type ExploreStatus struct {
	ID         string             `json:"id"`
	State      string             `json:"state"`
	Created    time.Time          `json:"created"`
	Anchors    int                `json:"anchors,omitempty"`
	Exhaustive bool               `json:"exhaustive,omitempty"`
	Error      string             `json:"error,omitempty"`
	Report     *sim.ExploreReport `json:"report,omitempty"`
}

// ErrorReply is the JSON body of every non-2xx response.
type ErrorReply struct {
	Error string `json:"error"`
	// Kind is the stable failure classification (the Kind* constants).
	Kind string `json:"kind"`
	// RetryAfterSec accompanies 429: the admission queue's estimate of when
	// capacity frees up (also sent as the Retry-After header).
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// VersionReply is the GET /v1/version reply: build and schema identifiers a
// client can check for compatibility before submitting work.
type VersionReply struct {
	Version   string `json:"version"` // daemon build version
	API       string `json:"api"`     // URL prefix generation ("/v1")
	GoVersion string `json:"go"`      // Go runtime the daemon was built with
	// ReportSchema versions the GET /v1/report layout (obs.BenchReportSchema);
	// HostBenchSchema versions the BENCH_host.json artifact the same build's
	// phelpsreport writes (obs.HostBenchSchema).
	ReportSchema    int `json:"report_schema"`
	HostBenchSchema int `json:"host_bench_schema"`
}

// NameList is the GET /v1/workloads and /v1/configs reply.
type NameList struct {
	Names []string `json:"names"`
}

// Healthz is the GET /v1/healthz reply.
type Healthz struct {
	OK       bool   `json:"ok"`
	State    string `json:"state"` // "serving" or "draining"
	Workers  int    `json:"workers"`
	Jobs     int    `json:"jobs"`
	QueueCap int    `json:"queue_capacity"`
	Queued   int    `json:"queued_cells"`
	// Journal reports the write-ahead journal's size and health (nil when the
	// daemon runs without -journal-dir).
	Journal *JournalStats `json:"journal,omitempty"`
	// Retry summarizes the retry policy's activity since boot.
	Retry RetryStats `json:"retry"`
}

// RetryStats is the daemon-wide retry activity inside Healthz.
type RetryStats struct {
	// Retried counts re-executions scheduled after a transient failure.
	Retried uint64 `json:"retried"`
	// Recovered counts cells that succeeded on a retry attempt.
	Recovered uint64 `json:"recovered"`
	// Exhausted counts cells that failed after spending the retry budget.
	Exhausted uint64 `json:"exhausted"`
	// Transient and Permanent classify observed attempt failures.
	Transient uint64 `json:"transient_failures"`
	Permanent uint64 `json:"permanent_failures"`
}

// ReportReply is the GET /v1/report reply: BENCH_report-schema figures over
// every completed cell the daemon has served (see obs.BenchReport).
type ReportReply = obs.BenchReport
