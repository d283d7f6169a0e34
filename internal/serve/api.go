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
//   - a cell is either answered by the results cache or run as a flight:
//     identical in-flight cells are batched onto one execution (every
//     submitter subscribes to the same flight), and completed cells land in
//     a results cache keyed by (workload hash, config name, seed,
//     sample-mode) and logged, so repeated sweeps are warm across restarts;
//   - one crashing or wedged cell fails only itself (the per-cell recover
//     and watchdog turn it into ErrPanic/ErrStall), never the daemon, and
//     it is not rerun: a cell is a pure function of its key, so a second
//     run would fail the same way;
//   - SIGTERM drains running cells and closes the results log.
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
const Version = "0.12.0"

// Every /v1 endpoint replies with a documented status code, and every
// non-2xx body is an ErrorReply JSON envelope:
//
//	POST   /v1/jobs             202 Accepted (Location: /v1/jobs/{id})
//	                            400 bad_request  (malformed body, unknown
//	                                field or bytes after it, unknown
//	                                workload/config name, oversized job)
//	                            429 overloaded   (admission queue full;
//	                                Retry-After header + retry_after_sec)
//	                            503 unavailable  (daemon draining)
//	GET    /v1/jobs/{id}        200 · 404 not_found
//	GET    /v1/jobs/{id}/result 200 · 404 not_found
//	DELETE /v1/jobs/{id}        200 (idempotent) · 404 not_found
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
	// Seed drives the sampled pipeline's clustering (0 =
	// sim.DefaultSampleSeed). The seed a sampled cell runs with is part of
	// its result-cache key.
	Seed uint64 `json:"seed,omitempty"`
	// Checks/Lockstep enable the invariant audit and the lockstep retirement
	// oracle on every cell (see sim.Config).
	Checks   bool `json:"checks,omitempty"`
	Lockstep bool `json:"lockstep,omitempty"`
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
	ID      string       `json:"id"`
	State   string       `json:"state"`
	Created time.Time    `json:"created"`
	Quick   bool         `json:"quick,omitempty"`
	Sampled bool         `json:"sampled,omitempty"`
	Total   int          `json:"total_cells"`
	Done    int          `json:"done_cells"`
	Cached  int          `json:"cached_cells"`
	Failed  int          `json:"failed_cells"`
	Cells   []CellStatus `json:"cells"`
}

// CellStatus is one cell's live view inside a JobStatus.
type CellStatus struct {
	Workload string  `json:"workload"`
	Config   string  `json:"config"`
	State    string  `json:"state"`
	Cached   bool    `json:"cached,omitempty"`
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
	Workload string      `json:"workload"`
	Config   string      `json:"config"`
	State    string      `json:"state"`
	Cached   bool        `json:"cached,omitempty"`
	Error    string      `json:"error,omitempty"`
	Result   *sim.Result `json:"result,omitempty"`
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
}

// ReportReply is the GET /v1/report reply: BENCH_report-schema figures over
// every completed cell the daemon has served (see obs.BenchReport).
type ReportReply = obs.BenchReport
