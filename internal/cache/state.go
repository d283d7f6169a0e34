// Binary serialization of warmed hierarchy state, for the persistent
// checkpoint cache (sim.CkptCache). Tag arrays, replacement order,
// prefetcher tables, outstanding-miss bookkeeping, and stats all round-trip
// exactly: a loaded hierarchy returns the same latencies and counts, access
// for access, as the one it was saved from. Configuration (set/way geometry,
// latencies) is not serialized — LoadState runs on a freshly built hierarchy
// of the same Config and validates every array length against it.
//
// Only live state is written. A functionally warmed hierarchy holds few
// valid lines, so each set is its occupancy followed by just its occupied
// ways, and the VLDP delta-pattern table is its used slots as (index, d1,
// d2, next). Ways past a set's occupancy and unused pattern slots are never
// read and always zero (fill only writes below the occupancy, and the table
// only ever resets wholesale), so LoadState zeroes them and a loaded
// hierarchy equals the saved one field for field.
package cache

import (
	"encoding/binary"
	"fmt"

	"phelps/internal/codec"
)

const stateHierarchy = 'H'

// Encoded record lengths: a resident line (tag, prefetched flag), an IPCP
// entry (pc, last line, stride, confidence), a VLDP page entry (page, last
// line, two deltas, valid) and a used delta-pattern slot (index, d1, d2,
// next).
const (
	lineSize = 8 + 1
	ipcpSize = 8 + 8 + 8 + 1
	vldpSize = 8 + 8 + 8 + 8 + 1
	slotSize = 2 + 8 + 8 + 8
)

// stateSize is the encoded length of appendState.
func (l *level) stateSize() int {
	n := 4 + 2*len(l.cnt)
	for _, c := range l.cnt {
		n += lineSize * int(c)
	}
	return n
}

func (l *level) appendState(b []byte) []byte {
	b = codec.U32(b, uint32(len(l.cnt)))
	for si, n := range l.cnt {
		b = codec.U16(b, n)
		for i := si * l.ways; i < si*l.ways+int(n); i++ {
			b = codec.U64(b, l.tags[i])
			b = codec.Bool(b, l.pref[i])
		}
	}
	return b
}

func (l *level) loadState(r *codec.Reader, what string) error {
	ns := int(r.U32())
	if r.Err() == nil && ns != len(l.cnt) {
		return fmt.Errorf("cache: %s has %d sets, state has %d", what, len(l.cnt), ns)
	}
	for si := 0; si < ns && r.Err() == nil; si++ {
		n := int(r.U16())
		if n > l.ways {
			return fmt.Errorf("cache: %s set %d holds %d lines, ways=%d", what, si, n, l.ways)
		}
		// The set's lines decode from one slice.
		raw := r.Bytes(lineSize * n)
		if r.Err() != nil {
			return r.Err()
		}
		// Ways past the occupancy are always zero, so a reused hierarchy
		// clears only the ways this set held beyond n.
		base := si * l.ways
		if old := int(l.cnt[si]); old > n {
			clear(l.tags[base+n : base+old])
			clear(l.pref[base+n : base+old])
		}
		l.cnt[si] = uint16(n)
		tags, pref := l.tags[base:base+n], l.pref[base:base+n]
		for i := range tags {
			rec := raw[lineSize*i : lineSize*(i+1)]
			if rec[8] > 1 {
				return fmt.Errorf("cache: %s set %d way %d prefetched flag %d", what, si, i, rec[8])
			}
			tags[i] = binary.LittleEndian.Uint64(rec)
			pref[i] = rec[8] == 1
		}
	}
	return r.Err()
}

// StateSize returns how many bytes AppendState appends, so a caller can
// size the buffer first.
func (h *Hierarchy) StateSize() int {
	n := 1 + 11*8
	for _, l := range []*level{h.l1i, h.l1d, h.l2, h.l3} {
		n += l.stateSize()
	}
	n += 4 + 8*len(h.mshr) + 1
	if h.ipcp != nil {
		n += ipcpSize * len(h.ipcp.entries)
	}
	n++
	if h.vldp != nil {
		n += vldpSize*len(h.vldp.entries) + 4 + slotSize*h.vldp.nDPT
	}
	return n
}

// AppendState appends the hierarchy's dynamic state to b.
func (h *Hierarchy) AppendState(b []byte) []byte {
	b = codec.U8(b, stateHierarchy)
	s := &h.Stats
	for _, v := range []uint64{
		s.L1IAccesses, s.L1IMisses, s.L1DAccesses, s.L1DMisses,
		s.L2Accesses, s.L2Misses, s.L3Accesses, s.L3Misses,
		s.PrefIssued, s.PrefUseful, s.MSHRStallCycles,
	} {
		b = codec.U64(b, v)
	}
	b = h.l1i.appendState(b)
	b = h.l1d.appendState(b)
	b = h.l2.appendState(b)
	b = h.l3.appendState(b)
	b = codec.U32(b, uint32(len(h.mshr)))
	for _, c := range h.mshr {
		b = codec.U64(b, c)
	}
	b = codec.Bool(b, h.ipcp != nil)
	if h.ipcp != nil {
		for i := range h.ipcp.entries {
			e := &h.ipcp.entries[i]
			b = codec.U64(b, e.pc)
			b = codec.U64(b, e.lastLine)
			b = codec.I64(b, e.stride)
			b = codec.U8(b, e.conf)
		}
	}
	b = codec.Bool(b, h.vldp != nil)
	if h.vldp != nil {
		for i := range h.vldp.entries {
			e := &h.vldp.entries[i]
			b = codec.U64(b, e.page)
			b = codec.U64(b, e.lastLine)
			b = codec.I64(b, e.delta[0])
			b = codec.I64(b, e.delta[1])
			b = codec.U8(b, e.valid)
		}
		// Used delta-pattern slots keep their index, so the open-addressing
		// probe layout — and therefore every future insert and the
		// deterministic at-capacity reset — is preserved exactly. nDPT
		// counts the used slots.
		b = codec.U32(b, uint32(h.vldp.nDPT))
		for i := range h.vldp.dpt {
			if sl := &h.vldp.dpt[i]; sl.used {
				b = codec.U16(b, uint16(i))
				b = codec.I64(b, sl.d1)
				b = codec.I64(b, sl.d2)
				b = codec.I64(b, sl.next)
			}
		}
	}
	return b
}

// LoadState replaces the hierarchy's dynamic state from the reader,
// consuming exactly what AppendState wrote. The hierarchy must have been
// built with the same Config as the saved one.
func (h *Hierarchy) LoadState(r *codec.Reader) error {
	if got := r.U8(); got != stateHierarchy {
		if err := r.Err(); err != nil {
			return err
		}
		return fmt.Errorf("cache: state kind %q, want %q", got, stateHierarchy)
	}
	s := &h.Stats
	for _, p := range []*uint64{
		&s.L1IAccesses, &s.L1IMisses, &s.L1DAccesses, &s.L1DMisses,
		&s.L2Accesses, &s.L2Misses, &s.L3Accesses, &s.L3Misses,
		&s.PrefIssued, &s.PrefUseful, &s.MSHRStallCycles,
	} {
		*p = r.U64()
	}
	for _, lv := range []struct {
		l    *level
		what string
	}{{h.l1i, "l1i"}, {h.l1d, "l1d"}, {h.l2, "l2"}, {h.l3, "l3"}} {
		if err := lv.l.loadState(r, lv.what); err != nil {
			return err
		}
	}
	nm := int(r.U32())
	if r.Err() == nil && nm > cap(h.mshr) {
		return fmt.Errorf("cache: state has %d outstanding misses, MSHRs=%d", nm, cap(h.mshr))
	}
	if r.Err() == nil {
		h.mshr = h.mshr[:0]
		for i := 0; i < nm && r.Err() == nil; i++ {
			h.mshr = append(h.mshr, r.U64())
		}
	}
	hasIPCP := r.Bool()
	if r.Err() == nil && hasIPCP != (h.ipcp != nil) {
		return fmt.Errorf("cache: L1-prefetcher presence mismatch (state %v, config %v)", hasIPCP, h.ipcp != nil)
	}
	if hasIPCP && h.ipcp != nil {
		raw := r.Bytes(ipcpSize * len(h.ipcp.entries))
		if r.Err() != nil {
			return r.Err()
		}
		for i := range h.ipcp.entries {
			rec := raw[ipcpSize*i:]
			h.ipcp.entries[i] = ipcpEntry{
				pc:       binary.LittleEndian.Uint64(rec),
				lastLine: binary.LittleEndian.Uint64(rec[8:]),
				stride:   int64(binary.LittleEndian.Uint64(rec[16:])),
				conf:     rec[24],
			}
		}
	}
	hasVLDP := r.Bool()
	if r.Err() == nil && hasVLDP != (h.vldp != nil) {
		return fmt.Errorf("cache: L2-prefetcher presence mismatch (state %v, config %v)", hasVLDP, h.vldp != nil)
	}
	if hasVLDP && h.vldp != nil {
		raw := r.Bytes(vldpSize * len(h.vldp.entries))
		if r.Err() != nil {
			return r.Err()
		}
		for i := range h.vldp.entries {
			rec := raw[vldpSize*i:]
			h.vldp.entries[i] = vldpEntry{
				page:     binary.LittleEndian.Uint64(rec),
				lastLine: binary.LittleEndian.Uint64(rec[8:]),
				delta: [2]int64{int64(binary.LittleEndian.Uint64(rec[16:])),
					int64(binary.LittleEndian.Uint64(rec[24:]))},
				valid: rec[32],
			}
		}
		n := int(r.U32())
		if r.Err() == nil && (n < 0 || n > dptMaxKeys) {
			return fmt.Errorf("cache: state has %d delta patterns, max %d", n, dptMaxKeys)
		}
		raw = r.Bytes(slotSize * n)
		if r.Err() != nil {
			return r.Err()
		}
		clear(h.vldp.dpt[:])
		h.vldp.nDPT = n
		prev := -1
		for k := 0; k < n; k++ {
			rec := raw[slotSize*k:]
			i := int(binary.LittleEndian.Uint16(rec))
			if i <= prev || i >= dptSlots {
				return fmt.Errorf("cache: delta-pattern slot %d after slot %d (want increasing, below %d)", i, prev, dptSlots)
			}
			h.vldp.dpt[i] = dptSlot{
				d1:   int64(binary.LittleEndian.Uint64(rec[2:])),
				d2:   int64(binary.LittleEndian.Uint64(rec[10:])),
				next: int64(binary.LittleEndian.Uint64(rec[18:])),
				used: true,
			}
			prev = i
		}
	}
	return r.Err()
}
