package bpred

import "math"

// TAGE-SC-L-class predictor: a bimodal base table, several tagged tables
// indexed with geometrically increasing global-history lengths, a loop
// predictor, and a small statistical corrector. This is a scaled-down
// implementation of the paper's 64KB TAGE-SC-L baseline [39]: the structures
// and update policies follow Seznec's design; table sizes are parameters.

const (
	tageTables  = 6
	tageCtrMax  = 3 // 3-bit signed counter range [-4,3]
	tageCtrMin  = -4
	tageUMax    = 3
	histMaxBits = 640
)

type tageEntry struct {
	tag uint16
	ctr int8 // [-4, 3]; taken if >= 0
	u   uint8
}

type tageTable struct {
	entries []tageEntry
	mask    uint64
	histLen int
	tagBits uint
	// folded history registers for index and tag computation
	foldIdx  foldedHist
	foldTag0 foldedHist
	foldTag1 foldedHist
}

// foldedHist maintains a circularly-folded global history of origLen bits
// compressed to compLen bits, updated incrementally per branch.
type foldedHist struct {
	comp    uint64
	compLen uint
	origLen int
	outPos  uint
}

func newFolded(origLen int, compLen uint) foldedHist {
	return foldedHist{compLen: compLen, origLen: origLen, outPos: uint(origLen) % compLen}
}

func (f *foldedHist) update(newBit, oldBit uint64) {
	f.comp = (f.comp << 1) | newBit
	f.comp ^= oldBit << f.outPos
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

// TAGE is the TAGE-SC-L-class predictor.
type TAGE struct {
	Stats
	base   []ctr2
	bMask  uint64
	tables [tageTables]tageTable

	ghist  [histMaxBits]uint8 // circular buffer of outcomes
	ghead  int
	useAlt int8 // use-alt-on-newly-allocated counter

	loop *loopPredictor
	sc   *statCorrector

	allocSeed uint64
}

// TAGEConfig sizes the predictor.
type TAGEConfig struct {
	LogBase   uint // log2 entries of bimodal base
	LogTagged uint // log2 entries of each tagged table
	MinHist   int
	MaxHist   int
	WithLoop  bool
	WithSC    bool
}

// DefaultTAGEConfig approximates the storage balance of 64KB TAGE-SC-L at
// simulator-friendly scale.
func DefaultTAGEConfig() TAGEConfig {
	return TAGEConfig{LogBase: 14, LogTagged: 11, MinHist: 4, MaxHist: 512, WithLoop: true, WithSC: true}
}

// NewTAGE builds a TAGE-SC-L-class predictor.
func NewTAGE(cfg TAGEConfig) *TAGE {
	t := &TAGE{}
	n := 1 << cfg.LogBase
	t.base = make([]ctr2, n)
	for i := range t.base {
		t.base[i] = ctr2Fresh
	}
	t.bMask = uint64(n - 1)

	// Geometric history lengths.
	ratio := 1.0
	if tageTables > 1 {
		ratio = math.Pow(float64(cfg.MaxHist)/float64(cfg.MinHist), 1.0/float64(tageTables-1))
	}
	h := float64(cfg.MinHist)
	for i := 0; i < tageTables; i++ {
		hl := int(h + 0.5)
		if hl >= histMaxBits {
			hl = histMaxBits - 1
		}
		tt := &t.tables[i]
		m := 1 << cfg.LogTagged
		tt.entries = make([]tageEntry, m)
		tt.mask = uint64(m - 1)
		tt.histLen = hl
		tt.tagBits = uint(9 + i)
		if tt.tagBits > 14 {
			tt.tagBits = 14
		}
		tt.foldIdx = newFolded(hl, cfg.LogTagged)
		tt.foldTag0 = newFolded(hl, tt.tagBits)
		tt.foldTag1 = newFolded(hl, tt.tagBits-1)
		h *= ratio
	}
	if cfg.WithLoop {
		t.loop = newLoopPredictor(6)
	}
	if cfg.WithSC {
		t.sc = newStatCorrector(12)
	}
	t.allocSeed = 0x123456789
	return t
}

func (t *TAGE) index(ti int) uint64 {
	tt := &t.tables[ti]
	return tt.foldIdx.comp & tt.mask
}

func (t *TAGE) tag(pc uint64, ti int) uint16 {
	tt := &t.tables[ti]
	return uint16((pc>>2 ^ tt.foldTag0.comp ^ (tt.foldTag1.comp << 1)) & ((1 << tt.tagBits) - 1))
}

func (t *TAGE) idxWithPC(pc uint64, ti int) uint64 {
	tt := &t.tables[ti]
	return (t.index(ti) ^ (pc >> 2) ^ (pc >> (2 + uint(ti)))) & tt.mask
}

// PredictAndTrain implements Predictor.
func (t *TAGE) PredictAndTrain(pc uint64, taken bool) bool {
	// --- prediction ---
	provider, altProvider := -1, -1
	var provIdx, altIdx uint64
	for i := tageTables - 1; i >= 0; i-- {
		idx := t.idxWithPC(pc, i)
		if t.tables[i].entries[idx].tag == t.tag(pc, i) {
			if provider < 0 {
				provider, provIdx = i, idx
			} else {
				altProvider, altIdx = i, idx
				break
			}
		}
	}
	basePred := t.base[(pc>>2)&t.bMask].taken()
	altPred := basePred
	if altProvider >= 0 {
		altPred = t.tables[altProvider].entries[altIdx].ctr >= 0
	}
	tagePred := altPred
	usedProvider := false
	weakProvider := false
	if provider >= 0 {
		e := &t.tables[provider].entries[provIdx]
		weakProvider = e.ctr == 0 || e.ctr == -1
		if weakProvider && e.u == 0 && t.useAlt >= 0 {
			tagePred = altPred // newly allocated: prefer alt
		} else {
			tagePred = e.ctr >= 0
			usedProvider = true
		}
	}

	pred := tagePred
	// Loop predictor override when confident.
	if t.loop != nil {
		if lp, conf := t.loop.predict(pc); conf {
			pred = lp
		}
	}
	// Statistical corrector may flip low-confidence TAGE predictions.
	if t.sc != nil {
		pred = t.sc.correct(pc, t.ghistBit(0), pred, provider >= 0 && !weakProvider)
	}

	t.record(pred)

	// --- update ---
	t.train(pc, taken, provider, provIdx, altProvider, altIdx, altPred, tagePred, usedProvider)
	if t.loop != nil {
		t.loop.update(pc, taken)
	}
	if t.sc != nil {
		t.sc.train(pc, t.ghistBit(0), taken)
	}
	t.pushHistory(taken)
	return pred
}

func (t *TAGE) train(pc uint64, taken bool, provider int, provIdx uint64, altProvider int, altIdx uint64, altPred, tagePred, usedProvider bool) {
	correct := tagePred == taken

	// Allocate on misprediction if a longer history table is available.
	if !correct && provider < tageTables-1 {
		start := provider + 1
		allocated := false
		// Pseudo-random start among candidates to avoid ping-pong.
		t.allocSeed = t.allocSeed*6364136223846793005 + 1442695040888963407
		for i := start; i < tageTables; i++ {
			idx := t.idxWithPC(pc, i)
			e := &t.tables[i].entries[idx]
			if e.u == 0 {
				e.tag = t.tag(pc, i)
				e.ctr = ctrInit(taken)
				allocated = true
				break
			}
		}
		if !allocated {
			// Decay usefulness of all candidates.
			for i := start; i < tageTables; i++ {
				idx := t.idxWithPC(pc, i)
				e := &t.tables[i].entries[idx]
				if e.u > 0 {
					e.u--
				}
			}
		}
	}

	// Update provider counter (or base if no provider).
	if provider >= 0 {
		e := &t.tables[provider].entries[provIdx]
		e.ctr = ctrUpdate(e.ctr, taken)
		// Usefulness: provider correct and alt wrong -> increment; the
		// reverse -> decrement.
		provPred := e.ctr >= 0
		_ = provPred
		if usedProvider {
			if (tagePred == taken) && (altPred != taken) && e.u < tageUMax {
				e.u++
			} else if (tagePred != taken) && (altPred == taken) && e.u > 0 {
				e.u--
			}
		}
		// use-alt counter training on weak entries.
		if e.u == 0 && (e.ctr == 0 || e.ctr == -1) {
			if altPred == taken && tagePred != taken && t.useAlt < 7 {
				t.useAlt++
			} else if altPred != taken && tagePred == taken && t.useAlt > -8 {
				t.useAlt--
			}
		}
		// Also train alt/base below provider when entry was newly allocated.
		if e.u == 0 {
			if altProvider >= 0 {
				ae := &t.tables[altProvider].entries[altIdx]
				ae.ctr = ctrUpdate(ae.ctr, taken)
			} else {
				bi := (pc >> 2) & t.bMask
				t.base[bi] = t.base[bi].update(taken)
			}
		}
	} else {
		bi := (pc >> 2) & t.bMask
		t.base[bi] = t.base[bi].update(taken)
	}
}

func ctrInit(taken bool) int8 {
	if taken {
		return 0
	}
	return -1
}

func ctrUpdate(c int8, taken bool) int8 {
	if taken {
		if c < tageCtrMax {
			return c + 1
		}
		return c
	}
	if c > tageCtrMin {
		return c - 1
	}
	return c
}

func (t *TAGE) ghistBit(age int) uint64 {
	i := t.ghead - 1 - age
	for i < 0 {
		i += histMaxBits
	}
	return uint64(t.ghist[i%histMaxBits])
}

func (t *TAGE) pushHistory(taken bool) {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	t.ghist[t.ghead] = uint8(bit)
	for i := range t.tables {
		tt := &t.tables[i]
		oldPos := t.ghead - tt.histLen
		for oldPos < 0 {
			oldPos += histMaxBits
		}
		oldBit := uint64(t.ghist[oldPos%histMaxBits])
		tt.foldIdx.update(bit, oldBit)
		tt.foldTag0.update(bit, oldBit)
		tt.foldTag1.update(bit, oldBit)
	}
	t.ghead = (t.ghead + 1) % histMaxBits
}

// Name implements Predictor.
func (t *TAGE) Name() string { return "tage-sc-l" }

// --- loop predictor ---

type loopEntry struct {
	tag       uint16
	tripCount uint16
	current   uint16
	conf      uint8
	valid     bool
}

type loopPredictor struct {
	entries []loopEntry
	mask    uint64
}

func newLoopPredictor(logSize uint) *loopPredictor {
	return &loopPredictor{entries: make([]loopEntry, 1<<logSize), mask: uint64(1<<logSize - 1)}
}

func (l *loopPredictor) at(pc uint64) *loopEntry { return &l.entries[(pc>>2)&l.mask] }

func (l *loopPredictor) tagOf(pc uint64) uint16 { return uint16(pc >> 8) }

// predict returns (direction, confident).
func (l *loopPredictor) predict(pc uint64) (bool, bool) {
	e := l.at(pc)
	if !e.valid || e.tag != l.tagOf(pc) || e.conf < 3 {
		return false, false
	}
	// Predict taken while below the learned trip count, not-taken at it.
	return e.current+1 < e.tripCount, true
}

func (l *loopPredictor) update(pc uint64, taken bool) {
	e := l.at(pc)
	if !e.valid || e.tag != l.tagOf(pc) {
		*e = loopEntry{tag: l.tagOf(pc), valid: true}
	}
	if taken {
		if e.current < ^uint16(0) {
			e.current++
		}
		return
	}
	// Loop exit: compare trip count with learned value.
	trip := e.current + 1
	if trip == e.tripCount {
		if e.conf < 7 {
			e.conf++
		}
	} else {
		e.tripCount = trip
		e.conf = 0
	}
	e.current = 0
}

// --- statistical corrector ---

// statCorrector is a small perceptron-style corrector over {bias, last
// outcome} features; it flips TAGE's prediction when the correlation is
// strong and TAGE confidence is low.
type statCorrector struct {
	bias []int8
	hist []int8
	mask uint64
}

func newStatCorrector(logSize uint) *statCorrector {
	n := 1 << logSize
	return &statCorrector{bias: make([]int8, n), hist: make([]int8, n), mask: uint64(n - 1)}
}

func (s *statCorrector) idx(pc, h uint64) (uint64, uint64) {
	return (pc >> 2) & s.mask, ((pc >> 2) ^ h<<3 ^ (pc >> 9)) & s.mask
}

func (s *statCorrector) correct(pc uint64, lastBit uint64, tagePred, tageConfident bool) bool {
	if tageConfident {
		return tagePred
	}
	i1, i2 := s.idx(pc, lastBit)
	sum := int(s.bias[i1]) + int(s.hist[i2])
	if sum > 8 {
		return true
	}
	if sum < -8 {
		return false
	}
	return tagePred
}

func (s *statCorrector) train(pc uint64, lastBit uint64, taken bool) {
	i1, i2 := s.idx(pc, lastBit)
	s.bias[i1] = sat8(s.bias[i1], taken)
	s.hist[i2] = sat8(s.hist[i2], taken)
}

func sat8(c int8, up bool) int8 {
	if up {
		if c < 63 {
			return c + 1
		}
		return c
	}
	if c > -64 {
		return c - 1
	}
	return c
}
