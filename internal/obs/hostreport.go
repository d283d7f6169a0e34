package obs

import (
	"encoding/json"
	"os"
)

// HostBenchSchema versions the BENCH_host.json layout; bump it when a field
// changes meaning so trajectory-diffing tools can tell.
//
// Schema 3 added the event_skip.* entries (event-driven clock A/B: speedup
// over forced per-cycle stepping, plus the skipped-cycle ratio).
//
// Schema 4 added the sampled_parallel.* entries (warm sampled wall-clock at 8
// point-measurement workers over warm serial, as speedup) and the
// ckpt_cache.* entries (cold first-run wall-clock over warm cached re-run, as
// warm_speedup), each with a geomean summary row.
//
// Schema 5 renamed event_skip.* to event_queue.* when the clock moved from
// polled NextEvent bounds to a calendar event queue, and added
// event_queue.quick_matrix. The event_queue.* entries were dropped when the
// simulator went back to stepping every cycle.
//
// Schema 6 added the optional note field (free-text caveat attached to an
// entry, so honest misses are explained in the artifact itself) and the
// explore.* entries written by `phelpsreport -explore`:
// explore.model_score (ns_per_op = ns per configuration scored through the
// learned model, sim_inst_per_sec = the cycle simulator's rate over the
// anchor+frontier cells — the two rates whose ratio is the fast path's
// point) and explore.triage (speedup = total cells over cycle-simulated
// cells, skip_ratio = fraction of cells never cycle-simulated).
const HostBenchSchema = 6

// HostBenchReport is the machine-readable artifact `phelpsreport -host`
// writes: how fast the simulator itself runs on the host (as opposed to
// BENCH_report.json, which records the simulated metrics). One entry per
// measurement, mirroring the bench_host_test.go suite so numbers are
// comparable between CI benches and the recorded artifact. The format is
// documented in EXPERIMENTS.md.
type HostBenchReport struct {
	Schema    int    `json:"schema"`
	GoVersion string `json:"go_version"`
	// NumCPU is the logical core count of the host the measurements were
	// taken on, recorded so later merges on other machines can annotate
	// entries against the measurement host, not the merging one. Zero in
	// artifacts written before the field existed.
	NumCPU  int              `json:"num_cpu,omitempty"`
	Entries []HostBenchEntry `json:"entries"`
}

// HostBenchEntry is one measurement. Pipeline-level entries report
// sim_inst_per_sec and allocs_per_sim_inst; memory-primitive entries report
// ns_per_op and allocs_per_op; sampled-vs-full entries additionally report
// speedup (full wall-clock / sampled wall-clock); sampled_parallel entries
// report speedup (warm serial wall-clock / warm 8-worker wall-clock);
// ckpt_cache entries report warm_speedup (cold first-run wall-clock, which
// pays the profile + checkpoint passes, over the warm cached re-run); the
// explore.triage entry reports skip_ratio. Unused fields are omitted. Note
// carries a free-text caveat when a number needs context to be read honestly
// (e.g. a below-1× speedup measured on a 1-core host).
type HostBenchEntry struct {
	Name             string  `json:"name"`
	SimInstPerSec    float64 `json:"sim_inst_per_sec,omitempty"`
	AllocsPerSimInst float64 `json:"allocs_per_sim_inst"`
	NsPerOp          float64 `json:"ns_per_op,omitempty"`
	Speedup          float64 `json:"speedup,omitempty"`
	SkipRatio        float64 `json:"skip_ratio,omitempty"`
	WarmSpeedup      float64 `json:"warm_speedup,omitempty"`
	Note             string  `json:"note,omitempty"`
}

// NewHostBenchReport returns an empty report stamped with the Go version.
func NewHostBenchReport(goVersion string) *HostBenchReport {
	return &HostBenchReport{Schema: HostBenchSchema, GoVersion: goVersion}
}

// Add appends one measurement.
func (h *HostBenchReport) Add(e HostBenchEntry) {
	h.Entries = append(h.Entries, e)
}

// WriteFile writes the report as indented JSON to path.
func (h *HostBenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
