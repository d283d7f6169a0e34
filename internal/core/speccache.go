package core

import "phelps/internal/emu"

// SpecCache is the helper thread's small private data cache for its stores
// (Section IV-A): 32 doublewords organized as 16 sets, 2-way set-associative
// by default. Helper thread stores commit here instead of the memory
// hierarchy; evicted data is simply lost, so a later helper-thread load may
// read stale architectural data — the paper's acknowledged (rare) source of
// wrong pre-executed outcomes.
type SpecCache struct {
	sets int
	ways int
	tags [][]uint64 // doubleword-aligned addresses; index 0 = MRU
	data [][]uint64

	Writes    uint64
	Hits      uint64
	Evictions uint64
}

// NewSpecCache returns a cache with the given geometry (paper: 16 sets, 2
// ways, 8B blocks).
func NewSpecCache(sets, ways int) *SpecCache {
	sc := &SpecCache{sets: sets, ways: ways}
	sc.tags = make([][]uint64, sets)
	sc.data = make([][]uint64, sets)
	return sc
}

func (sc *SpecCache) setOf(dw uint64) int { return int((dw / 8) % uint64(sc.sets)) }

// lookup finds a doubleword, promoting it to MRU.
func (sc *SpecCache) lookup(dw uint64) (uint64, bool) {
	s := sc.setOf(dw)
	for i, t := range sc.tags[s] {
		if t == dw {
			v := sc.data[s][i]
			// Promote to MRU.
			copy(sc.tags[s][1:i+1], sc.tags[s][:i])
			copy(sc.data[s][1:i+1], sc.data[s][:i])
			sc.tags[s][0] = dw
			sc.data[s][0] = v
			return v, true
		}
	}
	return 0, false
}

// WriteStore commits a helper-thread store of size bytes at addr. Partial
// doublewords are merged over the architectural background so later
// doubleword loads see a coherent value.
func (sc *SpecCache) WriteStore(mem *emu.Memory, addr uint64, size int, val uint64) {
	sc.Writes++
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		dw := a &^ 7
		cur, hit := sc.lookup(dw)
		if !hit {
			cur = mem.ReadArch(dw, 8)
		}
		shift := (a - dw) * 8
		cur = (cur &^ (0xFF << shift)) | (uint64(val>>(8*i)) & 0xFF << shift)
		sc.install(dw, cur, hit)
	}
}

func (sc *SpecCache) install(dw, val uint64, wasHit bool) {
	s := sc.setOf(dw)
	if wasHit {
		// lookup already promoted it to MRU slot 0.
		sc.data[s][0] = val
		return
	}
	if len(sc.tags[s]) < sc.ways {
		sc.tags[s] = append(sc.tags[s], 0)
		sc.data[s] = append(sc.data[s], 0)
	} else {
		sc.Evictions++ // LRU victim's data is lost
	}
	copy(sc.tags[s][1:], sc.tags[s][:len(sc.tags[s])-1])
	copy(sc.data[s][1:], sc.data[s][:len(sc.data[s])-1])
	sc.tags[s][0] = dw
	sc.data[s][0] = val
}

// ReadLoad services a helper-thread load: each covered doubleword comes from
// the spec cache if present, architectural memory otherwise. An access inside
// one doubleword makes one lookup and at most one architectural read; one
// that straddles two is assembled byte by byte. Returns the raw
// little-endian value (before sign extension).
func (sc *SpecCache) ReadLoad(mem *emu.Memory, addr uint64, size int) (val uint64, anyHit bool) {
	if dw := addr &^ 7; (addr+uint64(size)-1)&^7 == dw {
		v, hit := sc.lookup(dw)
		if !hit {
			return mem.ReadArch(addr, size), false
		}
		sc.Hits++
		return v >> ((addr - dw) * 8) & sizeMask(size), true
	}
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		dw := a &^ 7
		var b byte
		if v, hit := sc.lookup(dw); hit {
			b = byte(v >> ((a - dw) * 8))
			anyHit = true
		} else {
			b = mem.ReadArchByte(a)
		}
		val |= uint64(b) << (8 * i)
	}
	if anyHit {
		sc.Hits++
	}
	return val, anyHit
}

// Reset empties the cache (helper thread termination).
func (sc *SpecCache) Reset() {
	for s := range sc.tags {
		sc.tags[s] = sc.tags[s][:0]
		sc.data[s] = sc.data[s][:0]
	}
}

// ResetAll empties the cache and zeroes its counters. Pooled reuse across
// activations: termination folds the counters into the controller totals, so
// a recycled cache must restart from zero or the fold double-counts.
func (sc *SpecCache) ResetAll() {
	sc.Reset()
	sc.Writes, sc.Hits, sc.Evictions = 0, 0, 0
}
