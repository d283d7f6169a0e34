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
//
// Only trained entries are written. Every entry of a freshly built dense
// table holds its constructor value (2-bit counters 1, tagged entries and
// corrector weights 0), and functional warming over a run prefix trains few
// of them, so each such table is its entry count, a run count, and each
// maximal run of entries that differ from the constructor value as its
// start (a varint gap after the previous run), its varint length and its
// entries. LoadState resets the table to the constructor value and applies
// the runs. The decoder accepts only the form AppendState writes — runs
// ascending, at least one default entry between two runs, no default entry
// inside a run, shortest varints — so a blob that decodes re-encodes to the
// same bytes and equal predictors encode to equal bytes. The folded-history
// registers, the outcome ring and the loop table (about 1.3 KB) stay dense.
package bpred

import (
	"encoding/binary"
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

// entryCodec encodes one dense table's entry type in a fixed width, and
// names the value every entry of a freshly built table of that type holds.
type entryCodec[E comparable] struct {
	fresh E
	width int
	put   func(b []byte, e E) []byte
	get   func(b []byte) E
}

var (
	ctr2Codec = entryCodec[ctr2]{
		fresh: ctr2Fresh,
		width: 1,
		put:   func(b []byte, c ctr2) []byte { return append(b, byte(c)) },
		get:   func(b []byte) ctr2 { return ctr2(b[0]) },
	}
	tageCodec = entryCodec[tageEntry]{
		width: 4,
		put: func(b []byte, e tageEntry) []byte {
			return append(b, byte(e.tag), byte(e.tag>>8), uint8(e.ctr), e.u)
		},
		get: func(b []byte) tageEntry {
			return tageEntry{tag: uint16(b[0]) | uint16(b[1])<<8, ctr: int8(b[2]), u: b[3]}
		},
	}
	weightCodec = entryCodec[int8]{
		width: 1,
		put:   func(b []byte, v int8) []byte { return append(b, uint8(v)) },
		get:   func(b []byte) int8 { return int8(b[0]) },
	}
)

// nextRun returns the first maximal run [start, end) of entries that differ
// from fresh at or after i; start is len(t) when there is none.
func nextRun[E comparable](t []E, fresh E, i int) (start, end int) {
	for i < len(t) && t[i] == fresh {
		i++
	}
	start = i
	for i < len(t) && t[i] != fresh {
		i++
	}
	return start, i
}

// runsSize is the encoded length of appendRuns.
func runsSize[E comparable](t []E, c entryCodec[E]) int {
	n, prev := 4+4, 0
	for start, end := nextRun(t, c.fresh, 0); start < len(t); start, end = nextRun(t, c.fresh, end) {
		n += codec.UvarintSize(uint64(start-prev)) + codec.UvarintSize(uint64(end-start)) + c.width*(end-start)
		prev = end
	}
	return n
}

// appendRuns appends table t as its entry count, a run count, and each run
// of entries that differ from c.fresh as its gap (the default entries since
// the previous run, or since the table's start), its length and its
// entries.
func appendRuns[E comparable](b []byte, t []E, c entryCodec[E]) []byte {
	b = codec.U32(b, uint32(len(t)))
	at := len(b)
	b = codec.U32(b, 0)
	runs, prev := uint32(0), 0
	for start, end := nextRun(t, c.fresh, 0); start < len(t); start, end = nextRun(t, c.fresh, end) {
		b = codec.Uvarint(b, uint64(start-prev))
		b = codec.Uvarint(b, uint64(end-start))
		for _, e := range t[start:end] {
			b = c.put(b, e)
		}
		runs++
		prev = end
	}
	binary.LittleEndian.PutUint32(b[at:], runs)
	return b
}

// loadRuns resets table t to c.fresh and applies the runs appendRuns wrote,
// accepting only that canonical form: every run but the first follows a
// gap of at least one entry, and no run is empty, overruns the table or
// holds a default entry.
func loadRuns[E comparable](r *codec.Reader, t []E, c entryCodec[E], what string) error {
	n := int(r.U32())
	if r.Err() == nil && n != len(t) {
		return fmt.Errorf("bpred: %s has %d entries, state has %d", what, len(t), n)
	}
	runs := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	for i := range t {
		t[i] = c.fresh
	}
	end := 0
	for k := 0; k < runs; k++ {
		gap, length := r.Uvarint(), r.Uvarint()
		if err := r.Err(); err != nil {
			return err
		}
		left := uint64(len(t) - end)
		if (gap == 0 && k > 0) || length == 0 || gap > left || length > left-gap {
			return fmt.Errorf("bpred: %s run %d (gap %d, length %d after entry %d) is not a separate run within %d entries",
				what, k, gap, length, end, len(t))
		}
		start := end + int(gap)
		end = start + int(length)
		raw := r.Bytes(c.width * int(length))
		if raw == nil {
			return r.Err()
		}
		for i := range t[start:end] {
			e := c.get(raw[c.width*i:])
			if e == c.fresh {
				return fmt.Errorf("bpred: %s run %d holds a default entry at %d", what, k, start+i)
			}
			t[start+i] = e
		}
	}
	return nil
}

// --- Bimodal ---

// AppendState implements Predictor.
func (b *Bimodal) AppendState(buf []byte) []byte {
	buf = codec.U8(buf, stateBimodal)
	buf = appendStats(buf, &b.Stats)
	return appendRuns(buf, b.table, ctr2Codec)
}

// StateSize implements Predictor.
func (b *Bimodal) StateSize() int { return 1 + statsSize + runsSize(b.table, ctr2Codec) }

// LoadState implements Predictor.
func (b *Bimodal) LoadState(r *codec.Reader) error {
	if err := checkKind(r, stateBimodal, "bimodal"); err != nil {
		return err
	}
	loadStats(r, &b.Stats)
	if err := loadRuns(r, b.table, ctr2Codec, "bimodal table"); err != nil {
		return err
	}
	return r.Err()
}

// --- Gshare ---

// AppendState implements Predictor.
func (g *Gshare) AppendState(buf []byte) []byte {
	buf = codec.U8(buf, stateGshare)
	buf = appendStats(buf, &g.Stats)
	buf = appendRuns(buf, g.table, ctr2Codec)
	return codec.U64(buf, g.hist)
}

// StateSize implements Predictor.
func (g *Gshare) StateSize() int { return 1 + statsSize + runsSize(g.table, ctr2Codec) + 8 }

// LoadState implements Predictor.
func (g *Gshare) LoadState(r *codec.Reader) error {
	if err := checkKind(r, stateGshare, "gshare"); err != nil {
		return err
	}
	loadStats(r, &g.Stats)
	if err := loadRuns(r, g.table, ctr2Codec, "gshare table"); err != nil {
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
	buf = appendRuns(buf, t.base, ctr2Codec)
	for i := range t.tables {
		tt := &t.tables[i]
		buf = appendRuns(buf, tt.entries, tageCodec)
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
		buf = appendRuns(buf, t.sc.bias, weightCodec)
		buf = appendRuns(buf, t.sc.hist, weightCodec)
	}
	return buf
}

// StateSize implements Predictor.
func (t *TAGE) StateSize() int {
	n := 1 + statsSize + runsSize(t.base, ctr2Codec)
	for i := range t.tables {
		n += runsSize(t.tables[i].entries, tageCodec) + 3*8
	}
	n += len(t.ghist) + 4 + 1 + 8 + 1
	if t.loop != nil {
		n += 4 + 8*len(t.loop.entries)
	}
	n++
	if t.sc != nil {
		n += runsSize(t.sc.bias, weightCodec) + runsSize(t.sc.hist, weightCodec)
	}
	return n
}

// tageTableNames label the tagged tables in LoadState errors, so a load
// that succeeds formats none.
var tageTableNames = func() (names [tageTables]string) {
	for i := range names {
		names[i] = fmt.Sprintf("tage table %d", i)
	}
	return names
}()

// LoadState implements Predictor.
func (t *TAGE) LoadState(r *codec.Reader) error {
	if err := checkKind(r, stateTAGE, "tage"); err != nil {
		return err
	}
	loadStats(r, &t.Stats)
	if err := loadRuns(r, t.base, ctr2Codec, "tage base"); err != nil {
		return err
	}
	for i := range t.tables {
		tt := &t.tables[i]
		if err := loadRuns(r, tt.entries, tageCodec, tageTableNames[i]); err != nil {
			return err
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
		if err := loadRuns(r, t.sc.bias, weightCodec, "tage sc bias table"); err != nil {
			return err
		}
		if err := loadRuns(r, t.sc.hist, weightCodec, "tage sc history table"); err != nil {
			return err
		}
	}
	return r.Err()
}
