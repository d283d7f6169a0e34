// Package obs is the simulator's observability subsystem: a hierarchical
// counter/gauge registry that the timing components (core, caches, Phelps
// controller, Branch Runahead, branch predictors) register into, an interval
// sampler that turns the registry into a per-run time series, a
// Konata-compatible pipeline trace writer, and the machine-readable
// benchmark report emitted by cmd/phelpsreport.
//
// The registry holds *views*, not storage: components keep their existing
// exported Stats fields and register closures that read them, so a snapshot
// is always exact against the legacy structs. Names are dot-separated
// hierarchical scopes, e.g. core.main.retired, cache.l2.misses,
// phelps.engine0.queue_deposits (see DESIGN.md "Observability").
package obs

import (
	"fmt"
	"sort"
)

// Registry is a flat map of hierarchical dot-separated names to read-only
// views. Counters are monotonic uint64 event counts; gauges are
// instantaneous float64 levels (active helper threads, current epoch).
//
// Registration is not safe for concurrent use. Once registration has
// finished, concurrent Snapshot/CounterValue calls are safe provided the
// registered closures are themselves safe (e.g. they read atomics or take
// the owning component's lock) — the daemon in internal/serve relies on
// this: it registers everything in NewServer and snapshots live under
// concurrent request traffic. Single-run simulator registries keep the
// simpler regime: one goroutine, plain fields.
type Registry struct {
	counters map[string]func() uint64
	gauges   map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]func() uint64),
		gauges:   make(map[string]func() float64),
	}
}

// Counter registers a monotonic counter view under name. Registering the
// same name twice is a wiring bug and panics.
func (r *Registry) Counter(name string, fn func() uint64) {
	if fn == nil {
		panic("obs: nil counter func for " + name)
	}
	if _, dup := r.counters[name]; dup {
		panic("obs: duplicate counter " + name)
	}
	r.counters[name] = fn
}

// Gauge registers an instantaneous gauge view under name.
func (r *Registry) Gauge(name string, fn func() float64) {
	if fn == nil {
		panic("obs: nil gauge func for " + name)
	}
	if _, dup := r.gauges[name]; dup {
		panic("obs: duplicate gauge " + name)
	}
	r.gauges[name] = fn
}

// Scope returns a view of the registry that prefixes every registered name
// with prefix + ".".
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix} }

// CounterNames returns all registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counter reads one counter by name.
func (r *Registry) CounterValue(name string) (uint64, bool) {
	fn, ok := r.counters[name]
	if !ok {
		return 0, false
	}
	return fn(), true
}

// Snapshot materializes every registered view at this instant.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
	}
	for n, fn := range r.counters {
		s.Counters[n] = fn()
	}
	for n, fn := range r.gauges {
		s.Gauges[n] = fn()
	}
	return s
}

// Snapshot is a point-in-time reading of a registry.
type Snapshot struct {
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// Scope registers names under a fixed dot-separated prefix. Scopes nest:
// r.Scope("phelps").Scope("engine0") registers under "phelps.engine0.".
type Scope struct {
	r      *Registry
	prefix string
}

// Counter registers prefix+"."+name.
func (s Scope) Counter(name string, fn func() uint64) {
	s.r.Counter(s.prefix+"."+name, fn)
}

// Gauge registers prefix+"."+name.
func (s Scope) Gauge(name string, fn func() float64) {
	s.r.Gauge(s.prefix+"."+name, fn)
}

// Scope returns a nested scope.
func (s Scope) Scope(prefix string) Scope {
	return Scope{r: s.r, prefix: s.prefix + "." + prefix}
}

// Scopef returns a nested scope with a formatted name (e.g. engine indices).
func (s Scope) Scopef(format string, args ...any) Scope {
	return s.Scope(fmt.Sprintf(format, args...))
}
