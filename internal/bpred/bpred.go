// Package bpred implements the branch direction predictors used by the
// simulator: bimodal, gshare, a TAGE-SC-L-class predictor (the paper's
// baseline core uses 64KB TAGE-SC-L), and a perfect oracle (for the perfBP
// configuration of Fig. 12a).
package bpred

import (
	"phelps/internal/codec"
	"phelps/internal/obs"
)

// Stats counts predictor activity for observability. Predictors embed it,
// which also promotes RegisterObs (so sim can register any stats-carrying
// predictor under bpred.<name>.*).
type Stats struct {
	Lookups   uint64
	PredTaken uint64
}

// RegisterObs registers the predictor's counters under scope.
func (s *Stats) RegisterObs(r *obs.Registry, scope string) {
	sc := r.Scope(scope)
	sc.Counter("lookups", func() uint64 { return s.Lookups })
	sc.Counter("pred_taken", func() uint64 { return s.PredTaken })
}

func (s *Stats) record(taken bool) {
	s.Lookups++
	if taken {
		s.PredTaken++
	}
}

// Predictor predicts a conditional branch at fetch and trains immediately
// with the actual outcome (the simulator resolves correct-path outcomes
// up front; see DESIGN.md). Implementations keep their own global history.
//
// Every predictor's trained state can be snapshotted: sampled simulation
// (sim.SampledRun) warms one predictor functionally over the run prefix,
// encodes its state at each SimPoint checkpoint (state.go), and decodes it
// into the predictor that measures the point.
type Predictor interface {
	// PredictAndTrain returns the prediction for the branch at pc, then
	// updates all internal state (tables and histories) with the actual
	// outcome.
	PredictAndTrain(pc uint64, taken bool) bool

	// Name identifies the predictor in reports.
	Name() string

	// AppendState appends the predictor's dynamic state to b.
	AppendState(b []byte) []byte
	// StateSize returns how many bytes AppendState appends, so a caller can
	// size the buffer first.
	StateSize() int
	// LoadState replaces the predictor's dynamic state from the reader,
	// consuming exactly what AppendState wrote. The predictor must have been
	// constructed with the same configuration as the saved one.
	LoadState(r *codec.Reader) error
}

// ctr2 is a 2-bit saturating counter; taken if >= 2.
type ctr2 uint8

// ctr2Fresh is every counter's value in a freshly built table: weakly
// not-taken.
const ctr2Fresh ctr2 = 1

func (c ctr2) taken() bool { return c >= 2 }

func (c ctr2) update(taken bool) ctr2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// --- Bimodal ---

// Bimodal is a PC-indexed table of 2-bit counters. Branch Runahead uses a
// bimodal predictor for speculative chain triggering (Section VI).
type Bimodal struct {
	Stats
	table []ctr2
	mask  uint64
}

// NewBimodal returns a bimodal predictor with 2^logSize counters,
// initialized weakly taken... weakly not-taken (1), matching common practice.
func NewBimodal(logSize uint) *Bimodal {
	n := 1 << logSize
	t := make([]ctr2, n)
	for i := range t {
		t[i] = ctr2Fresh
	}
	return &Bimodal{table: t, mask: uint64(n - 1)}
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict returns the current prediction without training (used by the
// Branch Runahead chain trigger, which trains separately).
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.index(pc)].taken() }

// Train updates the counter for pc.
func (b *Bimodal) Train(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].update(taken)
}

// PredictAndTrain implements Predictor.
func (b *Bimodal) PredictAndTrain(pc uint64, taken bool) bool {
	p := b.Predict(pc)
	b.record(p)
	b.Train(pc, taken)
	return p
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

// ResetPC restores pc's counter to its freshly-constructed state (weakly
// not-taken). A pooled predictor whose user trains a known set of PCs resets
// just those counters (and its Stats) instead of the whole table.
func (b *Bimodal) ResetPC(pc uint64) { b.table[b.index(pc)] = ctr2Fresh }

// --- Gshare ---

// Gshare XORs global history into the table index.
type Gshare struct {
	Stats
	table []ctr2
	mask  uint64
	hist  uint64
	hbits uint
}

// NewGshare returns a gshare predictor with 2^logSize counters and hbits of
// global history.
func NewGshare(logSize, hbits uint) *Gshare {
	n := 1 << logSize
	t := make([]ctr2, n)
	for i := range t {
		t[i] = ctr2Fresh
	}
	return &Gshare{table: t, mask: uint64(n - 1), hbits: hbits}
}

// PredictAndTrain implements Predictor.
func (g *Gshare) PredictAndTrain(pc uint64, taken bool) bool {
	i := ((pc >> 2) ^ (g.hist & ((1 << g.hbits) - 1))) & g.mask
	p := g.table[i].taken()
	g.record(p)
	g.table[i] = g.table[i].update(taken)
	g.hist = g.hist<<1 | b2u(taken)
	return p
}

// Name implements Predictor.
func (g *Gshare) Name() string { return "gshare" }

// --- Perfect ---

// Perfect is the oracle predictor used for the perfBP configuration.
type Perfect struct{}

// PredictAndTrain implements Predictor: always correct.
func (Perfect) PredictAndTrain(_ uint64, taken bool) bool { return taken }

// Name implements Predictor.
func (Perfect) Name() string { return "perfect" }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
