// Binary serialization of trained predictor state, for the persistent
// checkpoint cache (sim.CkptCache): sampled simulation warms a predictor
// functionally over the run prefix and snapshots the warmed state per
// SimPoint; serializing it means the warm-up pass runs once per workload ever.
//
// Only dynamic state is serialized — table contents, folded-history
// registers, counters — never configuration (sizes, masks, history lengths).
// LoadState is called on a freshly constructed predictor of the same
// configuration and validates that every table length matches, so a state
// blob from a differently-sized predictor decodes to an error, not silent
// corruption. The byte format is exact: a loaded predictor produces the same
// prediction sequence, bit for bit, as the one it was saved from.
package bpred

import (
	"fmt"

	"phelps/internal/codec"
)

// Per-predictor kind tags: the first state byte, checked on load so a blob
// cannot be decoded into the wrong predictor type.
const (
	stateBimodal = 'B'
	stateGshare  = 'G'
	statePerfect = 'P'
	stateTAGE    = 'T'
)

func checkKind(r *codec.Reader, want uint8, name string) error {
	if got := r.U8(); got != want {
		if err := r.Err(); err != nil {
			return err
		}
		return fmt.Errorf("bpred: state kind %q, want %q (%s)", got, want, name)
	}
	return nil
}

func appendStats(b []byte, s *Stats) []byte {
	b = codec.U64(b, s.Lookups)
	return codec.U64(b, s.PredTaken)
}

func loadStats(r *codec.Reader, s *Stats) {
	s.Lookups = r.U64()
	s.PredTaken = r.U64()
}

// statsSize is the encoded length of appendStats.
const statsSize = 16

// ctr2sSize is the encoded length of appendCtr2s.
func ctr2sSize(t []ctr2) int { return 4 + len(t) }

func appendCtr2s(b []byte, t []ctr2) []byte {
	b = codec.U32(b, uint32(len(t)))
	for _, c := range t {
		b = append(b, byte(c))
	}
	return b
}

func loadCtr2s(r *codec.Reader, t []ctr2, what string) error {
	n := int(r.U32())
	if r.Err() == nil && n != len(t) {
		return fmt.Errorf("bpred: %s has %d entries, state has %d", what, len(t), n)
	}
	raw := r.Bytes(n)
	if raw == nil {
		return r.Err()
	}
	for i, v := range raw {
		t[i] = ctr2(v)
	}
	return nil
}

// --- Bimodal ---

// AppendState implements Predictor.
func (b *Bimodal) AppendState(buf []byte) []byte {
	buf = codec.U8(buf, stateBimodal)
	buf = appendStats(buf, &b.Stats)
	return appendCtr2s(buf, b.table)
}

// StateSize implements Predictor.
func (b *Bimodal) StateSize() int { return 1 + statsSize + ctr2sSize(b.table) }

// LoadState implements Predictor.
func (b *Bimodal) LoadState(r *codec.Reader) error {
	if err := checkKind(r, stateBimodal, "bimodal"); err != nil {
		return err
	}
	loadStats(r, &b.Stats)
	if err := loadCtr2s(r, b.table, "bimodal table"); err != nil {
		return err
	}
	return r.Err()
}

// --- Gshare ---

// AppendState implements Predictor.
func (g *Gshare) AppendState(buf []byte) []byte {
	buf = codec.U8(buf, stateGshare)
	buf = appendStats(buf, &g.Stats)
	buf = appendCtr2s(buf, g.table)
	return codec.U64(buf, g.hist)
}

// StateSize implements Predictor.
func (g *Gshare) StateSize() int { return 1 + statsSize + ctr2sSize(g.table) + 8 }

// LoadState implements Predictor.
func (g *Gshare) LoadState(r *codec.Reader) error {
	if err := checkKind(r, stateGshare, "gshare"); err != nil {
		return err
	}
	loadStats(r, &g.Stats)
	if err := loadCtr2s(r, g.table, "gshare table"); err != nil {
		return err
	}
	g.hist = r.U64()
	return r.Err()
}

// --- Perfect ---

// AppendState implements Predictor (the oracle is stateless; one tag byte).
func (Perfect) AppendState(buf []byte) []byte { return codec.U8(buf, statePerfect) }

// StateSize implements Predictor.
func (Perfect) StateSize() int { return 1 }

// LoadState implements Predictor.
func (Perfect) LoadState(r *codec.Reader) error { return checkKind(r, statePerfect, "perfect") }

// --- TAGE ---

// AppendState implements Predictor: base and tagged tables, the folded
// history registers (only comp is dynamic; the fold geometry is config), the
// outcome ring, the use-alt and allocation-seed registers, and the loop
// predictor and statistical corrector tables when configured.
func (t *TAGE) AppendState(buf []byte) []byte {
	buf = codec.U8(buf, stateTAGE)
	buf = appendStats(buf, &t.Stats)
	buf = appendCtr2s(buf, t.base)
	for i := range t.tables {
		tt := &t.tables[i]
		buf = codec.U32(buf, uint32(len(tt.entries)))
		for _, e := range tt.entries {
			buf = append(buf, byte(e.tag), byte(e.tag>>8), uint8(e.ctr), e.u)
		}
		buf = codec.U64(buf, tt.foldIdx.comp)
		buf = codec.U64(buf, tt.foldTag0.comp)
		buf = codec.U64(buf, tt.foldTag1.comp)
	}
	buf = append(buf, t.ghist[:]...)
	buf = codec.U32(buf, uint32(t.ghead))
	buf = codec.U8(buf, uint8(t.useAlt))
	buf = codec.U64(buf, t.allocSeed)
	buf = codec.Bool(buf, t.loop != nil)
	if t.loop != nil {
		buf = codec.U32(buf, uint32(len(t.loop.entries)))
		for _, e := range t.loop.entries {
			buf = codec.U16(buf, e.tag)
			buf = codec.U16(buf, e.tripCount)
			buf = codec.U16(buf, e.current)
			buf = codec.U8(buf, e.conf)
			buf = codec.Bool(buf, e.valid)
		}
	}
	buf = codec.Bool(buf, t.sc != nil)
	if t.sc != nil {
		buf = codec.U32(buf, uint32(len(t.sc.bias)))
		for _, v := range t.sc.bias {
			buf = codec.U8(buf, uint8(v))
		}
		for _, v := range t.sc.hist {
			buf = codec.U8(buf, uint8(v))
		}
	}
	return buf
}

// StateSize implements Predictor.
func (t *TAGE) StateSize() int {
	n := 1 + statsSize + ctr2sSize(t.base)
	for i := range t.tables {
		n += 4 + 4*len(t.tables[i].entries) + 3*8
	}
	n += len(t.ghist) + 4 + 1 + 8 + 1
	if t.loop != nil {
		n += 4 + 8*len(t.loop.entries)
	}
	n++
	if t.sc != nil {
		n += 4 + len(t.sc.bias) + len(t.sc.hist)
	}
	return n
}

// LoadState implements Predictor.
func (t *TAGE) LoadState(r *codec.Reader) error {
	if err := checkKind(r, stateTAGE, "tage"); err != nil {
		return err
	}
	loadStats(r, &t.Stats)
	if err := loadCtr2s(r, t.base, "tage base"); err != nil {
		return err
	}
	for i := range t.tables {
		tt := &t.tables[i]
		n := int(r.U32())
		if r.Err() == nil && n != len(tt.entries) {
			return fmt.Errorf("bpred: tage table %d has %d entries, state has %d", i, len(tt.entries), n)
		}
		raw := r.Bytes(n * 4)
		if raw == nil {
			return r.Err()
		}
		for j := range tt.entries {
			e := &tt.entries[j]
			e.tag = uint16(raw[j*4]) | uint16(raw[j*4+1])<<8
			e.ctr = int8(raw[j*4+2])
			e.u = raw[j*4+3]
		}
		tt.foldIdx.comp = r.U64()
		tt.foldTag0.comp = r.U64()
		tt.foldTag1.comp = r.U64()
	}
	if raw := r.Bytes(len(t.ghist)); raw != nil {
		copy(t.ghist[:], raw)
	}
	t.ghead = int(r.U32())
	t.useAlt = int8(r.U8())
	t.allocSeed = r.U64()
	if r.Err() == nil && (t.ghead < 0 || t.ghead >= histMaxBits) {
		return fmt.Errorf("bpred: tage ghead %d out of range", t.ghead)
	}
	hasLoop := r.Bool()
	if r.Err() == nil && hasLoop != (t.loop != nil) {
		return fmt.Errorf("bpred: tage loop-predictor presence mismatch (state %v, config %v)", hasLoop, t.loop != nil)
	}
	if hasLoop && t.loop != nil {
		n := int(r.U32())
		if r.Err() == nil && n != len(t.loop.entries) {
			return fmt.Errorf("bpred: tage loop table has %d entries, state has %d", len(t.loop.entries), n)
		}
		for j := 0; j < n && r.Err() == nil; j++ {
			e := &t.loop.entries[j]
			e.tag = r.U16()
			e.tripCount = r.U16()
			e.current = r.U16()
			e.conf = r.U8()
			e.valid = r.Bool()
		}
	}
	hasSC := r.Bool()
	if r.Err() == nil && hasSC != (t.sc != nil) {
		return fmt.Errorf("bpred: tage statistical-corrector presence mismatch (state %v, config %v)", hasSC, t.sc != nil)
	}
	if hasSC && t.sc != nil {
		n := int(r.U32())
		if r.Err() == nil && n != len(t.sc.bias) {
			return fmt.Errorf("bpred: tage sc tables have %d entries, state has %d", len(t.sc.bias), n)
		}
		if raw := r.Bytes(n); raw != nil {
			for j, v := range raw {
				t.sc.bias[j] = int8(v)
			}
		}
		if raw := r.Bytes(n); raw != nil {
			for j, v := range raw {
				t.sc.hist[j] = int8(v)
			}
		}
	}
	return r.Err()
}
