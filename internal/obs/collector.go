package obs

// Well-known registry names the sampler uses to derive per-interval metrics.
// They match what sim.Run registers; a registry missing them simply yields
// zero derived fields.
const (
	CtrCycles      = "core.main.cycles"
	CtrRetired     = "core.main.retired"
	CtrMispredicts = "core.main.mispredicts"

	GaugeActiveHTs = "phelps.ctrl.active_engines"
	GaugeEpoch     = "phelps.ctrl.epoch"
)

// Sample is one interval snapshot of a run. Counters/Gauges are cumulative
// registry readings at the sample instant; IPC and MPKI are computed over
// the interval since the previous sample.
type Sample struct {
	Cycle     uint64  `json:"cycle"`
	Retired   uint64  `json:"retired"`
	IPC       float64 `json:"interval_ipc"`
	MPKI      float64 `json:"interval_mpki"`
	ActiveHTs float64 `json:"active_hts"`
	Epoch     float64 `json:"epoch"`

	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// Collector bundles the per-run observability state: the registry the
// components register into, the optional interval sampler, and the optional
// pipeline trace writer. sim.Run drives it; a Collector must not be shared
// between concurrent runs.
type Collector struct {
	Registry *Registry

	// Interval samples the registry every Interval cycles (0 disables
	// sampling).
	Interval uint64

	// Trace, when non-nil, receives per-instruction pipeline lifecycle
	// events from the main-thread core (Konata format; see konata.go).
	// The caller owns the underlying writer and calls Trace.Flush.
	Trace *KonataWriter

	series      []Sample
	nextAt      uint64
	lastCycle   uint64
	lastRetired uint64
	lastMisp    uint64
}

// NewCollector returns a collector with a fresh registry, sampling every
// interval cycles (0 = summary counters only, no time series).
func NewCollector(interval uint64) *Collector {
	return &Collector{Registry: NewRegistry(), Interval: interval, nextAt: interval}
}

// MaybeSample is called once per simulated cycle with the number of cycles
// completed; it snapshots the registry at every Interval boundary.
func (c *Collector) MaybeSample(cycles uint64) {
	if c.Interval == 0 || cycles < c.nextAt {
		return
	}
	c.sample(cycles)
	for c.nextAt <= cycles {
		c.nextAt += c.Interval
	}
}

// Finish takes a final partial sample if the run progressed past the last
// boundary. sim.Run calls it when the run ends.
func (c *Collector) Finish(cycles uint64) {
	if c.Interval == 0 {
		return
	}
	if n := len(c.series); n > 0 && c.series[n-1].Cycle >= cycles {
		return
	}
	c.sample(cycles)
}

func (c *Collector) sample(cycles uint64) {
	snap := c.Registry.Snapshot()
	cyc := snap.Counters[CtrCycles]
	if cyc == 0 {
		cyc = cycles
	}
	retired := snap.Counters[CtrRetired]
	misp := snap.Counters[CtrMispredicts]

	s := Sample{
		Cycle:     cyc,
		Retired:   retired,
		ActiveHTs: snap.Gauges[GaugeActiveHTs],
		Epoch:     snap.Gauges[GaugeEpoch],
		Counters:  snap.Counters,
		Gauges:    snap.Gauges,
	}
	if dc := cyc - c.lastCycle; dc > 0 {
		s.IPC = float64(retired-c.lastRetired) / float64(dc)
	}
	if dr := retired - c.lastRetired; dr > 0 {
		s.MPKI = float64(misp-c.lastMisp) * 1000 / float64(dr)
	}
	c.series = append(c.series, s)
	c.lastCycle, c.lastRetired, c.lastMisp = cyc, retired, misp
}

// Series returns the samples taken so far.
func (c *Collector) Series() []Sample { return c.series }
