// Package cache models the memory hierarchy of Table III: L1I, L1D, L2, L3
// with LRU set-associative tag arrays, MSHR-limited outstanding misses, a
// fixed-latency DRAM backend, and IPCP/VLDP-class prefetchers. The model is
// latency-oriented: an access returns the cycle its data is ready; contents
// (values) live in emu.Memory.
package cache

import "phelps/internal/obs"

// LineBytes is the cache line size at every level.
const LineBytes = 64

// Config sizes the hierarchy. Latencies are total load-to-use latencies when
// hitting at that level, per Table III (L1D: 3 = 1 agen + 2 hit; L2: 15;
// L3: 40; DRAM adds 100 beyond L3).
type Config struct {
	L1ISets, L1IWays int
	L1DSets, L1DWays int
	L2Sets, L2Ways   int
	L3Sets, L3Ways   int

	L1Latency   uint64
	L2Latency   uint64
	L3Latency   uint64
	DRAMLatency uint64

	MSHRs int // outstanding L1D misses

	L1Prefetch bool // IPCP-class stride prefetcher at L1D
	L2Prefetch bool // VLDP-class delta prefetcher at L2
}

// DefaultConfig matches Table III: 32KB/8-way L1I, 48KB/12-way L1D,
// 1.25MB/20-way L2, 3MB/12-way L3.
func DefaultConfig() Config {
	return Config{
		L1ISets: 64, L1IWays: 8, // 64*8*64B = 32KB
		L1DSets: 64, L1DWays: 12, // 48KB
		L2Sets: 1024, L2Ways: 20, // 1.25MB
		L3Sets: 4096, L3Ways: 12, // 3MB
		L1Latency: 3, L2Latency: 15, L3Latency: 40, DRAMLatency: 100,
		MSHRs:      32,
		L1Prefetch: true, L2Prefetch: true,
	}
}

// Stats counts hierarchy events.
type Stats struct {
	L1IAccesses, L1IMisses uint64
	L1DAccesses, L1DMisses uint64
	L2Accesses, L2Misses   uint64
	L3Accesses, L3Misses   uint64
	PrefIssued, PrefUseful uint64
	MSHRStallCycles        uint64
}

// level is one set-associative tag array, stored flat: set s occupies
// tags[s*ways : s*ways+cnt[s]], index 0 within the set = MRU. The flat layout
// keeps a level at three heap allocations regardless of set count (an L3 has
// 4096 sets; per-set slices cost ~8k allocations per hierarchy, which
// dominated the per-cell setup of the experiment matrix).
type level struct {
	tags    []uint64 // nSets*ways line tags
	pref    []bool   // line arrived via prefetch and is unused so far
	cnt     []uint16 // resident lines per set
	ways    int
	setMask uint64
}

func newLevel(nSets, ways int) *level {
	return &level{
		tags:    make([]uint64, nSets*ways),
		pref:    make([]bool, nSets*ways),
		cnt:     make([]uint16, nSets),
		ways:    ways,
		setMask: uint64(nSets - 1),
	}
}

// lookup probes for a line; on hit it moves the line to MRU and reports
// whether the line was a so-far-unused prefetch.
func (l *level) lookup(line uint64) (hit, wasPref bool) {
	si := int(line & l.setMask)
	base := si * l.ways
	n := int(l.cnt[si])
	for i := 0; i < n; i++ {
		if l.tags[base+i] == line {
			wasPref = l.pref[base+i]
			// Move to MRU.
			copy(l.tags[base+1:base+i+1], l.tags[base:base+i])
			copy(l.pref[base+1:base+i+1], l.pref[base:base+i])
			l.tags[base] = line
			l.pref[base] = false
			return true, wasPref
		}
	}
	return false, false
}

// fill inserts a line at MRU, evicting LRU if needed.
func (l *level) fill(line uint64, isPref bool) {
	si := int(line & l.setMask)
	base := si * l.ways
	n := int(l.cnt[si])
	for i := 0; i < n; i++ {
		if l.tags[base+i] == line {
			// Already present (e.g. racing prefetch); refresh MRU.
			copy(l.tags[base+1:base+i+1], l.tags[base:base+i])
			copy(l.pref[base+1:base+i+1], l.pref[base:base+i])
			l.tags[base] = line
			l.pref[base] = isPref && l.pref[base+i]
			return
		}
	}
	if n < l.ways {
		n++
		l.cnt[si] = uint16(n)
	}
	copy(l.tags[base+1:base+n], l.tags[base:base+n-1])
	copy(l.pref[base+1:base+n], l.pref[base:base+n-1])
	l.tags[base] = line
	l.pref[base] = isPref
}

// Hierarchy is one shared cache hierarchy (main thread and helper threads
// share it, per Section IV-A; only the helper-thread store cache is private
// and lives in internal/core).
type Hierarchy struct {
	cfg  Config
	l1i  *level
	l1d  *level
	l2   *level
	l3   *level
	mshr []uint64 // completion cycles of outstanding L1D misses

	ipcp *ipcpPrefetcher
	vldp *vldpPrefetcher

	Stats Stats
}

// New returns a hierarchy with the given configuration.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{
		cfg: cfg,
		l1i: newLevel(cfg.L1ISets, cfg.L1IWays),
		l1d: newLevel(cfg.L1DSets, cfg.L1DWays),
		l2:  newLevel(cfg.L2Sets, cfg.L2Ways),
		l3:  newLevel(cfg.L3Sets, cfg.L3Ways),
	}
	if cfg.MSHRs > 0 {
		h.mshr = make([]uint64, 0, cfg.MSHRs)
	}
	if cfg.L1Prefetch {
		h.ipcp = newIPCP()
	}
	if cfg.L2Prefetch {
		h.vldp = newVLDP()
	}
	return h
}

// RegisterObs registers the hierarchy's counters into an observability
// registry under scope (e.g. "cache" yields cache.l1d.misses, ...).
func (h *Hierarchy) RegisterObs(r *obs.Registry, scope string) {
	s := r.Scope(scope)
	level := func(name string, acc, miss *uint64) {
		ls := s.Scope(name)
		ls.Counter("accesses", func() uint64 { return *acc })
		ls.Counter("misses", func() uint64 { return *miss })
	}
	level("l1i", &h.Stats.L1IAccesses, &h.Stats.L1IMisses)
	level("l1d", &h.Stats.L1DAccesses, &h.Stats.L1DMisses)
	level("l2", &h.Stats.L2Accesses, &h.Stats.L2Misses)
	level("l3", &h.Stats.L3Accesses, &h.Stats.L3Misses)
	pf := s.Scope("pref")
	pf.Counter("issued", func() uint64 { return h.Stats.PrefIssued })
	pf.Counter("useful", func() uint64 { return h.Stats.PrefUseful })
	s.Scope("mshr").Counter("stall_cycles", func() uint64 { return h.Stats.MSHRStallCycles })
}

// ResetStats zeroes the hierarchy's counters; tag arrays, prefetcher state,
// and outstanding misses are untouched (the point of a warmup phase is that
// they stay warm).
func (h *Hierarchy) ResetStats() { h.Stats = Stats{} }

// Quiesce drops all outstanding-miss bookkeeping. Functional cache warming
// advances a pseudo-clock unrelated to the timing model's cycle count;
// without a quiesce, stale MSHR completion times from warming would
// serialize the first real misses of a measured interval.
func (h *Hierarchy) Quiesce() {
	if h.mshr != nil {
		h.mshr = h.mshr[:0]
	}
}

func lineOf(addr uint64) uint64 { return addr / LineBytes }

// beyondL1 walks L2/L3/DRAM for a line that missed L1, returning the added
// latency beyond L1 and filling levels on the way back.
func (h *Hierarchy) beyondL1(line uint64) uint64 {
	h.Stats.L2Accesses++
	if hit, wasPref := h.l2.lookup(line); hit {
		if wasPref {
			h.Stats.PrefUseful++
		}
		if h.vldp != nil {
			h.vldp.train(line)
		}
		return h.cfg.L2Latency - h.cfg.L1Latency
	}
	h.Stats.L2Misses++
	if h.vldp != nil {
		if p, ok := h.vldp.trainAndPredict(line); ok {
			h.prefetchIntoL2(p)
		}
	}
	h.Stats.L3Accesses++
	if hit, wasPref := h.l3.lookup(line); hit {
		if wasPref {
			h.Stats.PrefUseful++
		}
		h.l2.fill(line, false)
		return h.cfg.L3Latency - h.cfg.L1Latency
	}
	h.Stats.L3Misses++
	h.l3.fill(line, false)
	h.l2.fill(line, false)
	return h.cfg.L3Latency + h.cfg.DRAMLatency - h.cfg.L1Latency
}

// allocMSHR serializes a miss through the MSHR file: if all MSHRs are busy at
// `now`, the miss starts when the earliest one frees. Returns the start cycle.
func (h *Hierarchy) allocMSHR(now, completion uint64) uint64 {
	if cap(h.mshr) == 0 {
		return now
	}
	// Drop completed entries.
	live := h.mshr[:0]
	for _, c := range h.mshr {
		if c > now {
			live = append(live, c)
		}
	}
	h.mshr = live
	start := now
	if len(h.mshr) >= cap(h.mshr) {
		// Wait for the earliest completion.
		earliest := h.mshr[0]
		ei := 0
		for i, c := range h.mshr {
			if c < earliest {
				earliest, ei = c, i
			}
		}
		h.Stats.MSHRStallCycles += earliest - now
		start = earliest
		h.mshr[ei] = h.mshr[len(h.mshr)-1]
		h.mshr = h.mshr[:len(h.mshr)-1]
	}
	h.mshr = append(h.mshr, start+(completion-now))
	return start
}

// Load models a data load issued at cycle `now` by any thread; pc identifies
// the load instruction for prefetcher training. It returns the cycle the
// data is ready.
func (h *Hierarchy) Load(pc, addr, now uint64) uint64 {
	line := lineOf(addr)
	h.Stats.L1DAccesses++
	hit, wasPref := h.l1d.lookup(line)
	if h.ipcp != nil {
		if ps, n := h.ipcp.trainAndPredict(pc, line); n > 0 {
			for i := 0; i < n; i++ {
				h.prefetchIntoL1(ps[i])
			}
		}
	}
	if hit {
		if wasPref {
			h.Stats.PrefUseful++
		}
		return now + h.cfg.L1Latency
	}
	h.Stats.L1DMisses++
	extra := h.beyondL1(line)
	h.l1d.fill(line, false)
	start := h.allocMSHR(now, now+h.cfg.L1Latency+extra)
	return start + h.cfg.L1Latency + extra
}

// Store models a committed store's cache access (write-allocate). Stores are
// off the critical path (retired through the store buffer), so Store only
// updates tag state and prefetcher training; it returns the hit level's
// latency for statistics-minded callers.
func (h *Hierarchy) Store(addr, now uint64) uint64 {
	line := lineOf(addr)
	h.Stats.L1DAccesses++
	if hit, _ := h.l1d.lookup(line); hit {
		return now + h.cfg.L1Latency
	}
	h.Stats.L1DMisses++
	extra := h.beyondL1(line)
	h.l1d.fill(line, false)
	return now + h.cfg.L1Latency + extra
}

// FetchInst models an instruction fetch of one line; returns ready cycle.
// A next-line instruction prefetcher (standard in all modern frontends)
// hides sequential-code compulsory misses.
func (h *Hierarchy) FetchInst(pc, now uint64) uint64 {
	line := lineOf(pc)
	h.Stats.L1IAccesses++
	hit, _ := h.l1i.lookup(line)
	// Next-line prefetch into L1I.
	if nhit, _ := h.l1i.lookup(line + 1); !nhit {
		h.Stats.PrefIssued++
		h.beyondL1(line + 1)
		h.l1i.fill(line+1, true)
	}
	if hit {
		return now // L1I hit is hidden in the pipeline's fetch stage
	}
	h.Stats.L1IMisses++
	extra := h.beyondL1(line)
	h.l1i.fill(line, false)
	return now + extra
}

func (h *Hierarchy) prefetchIntoL1(line uint64) {
	if hit, _ := h.l1d.lookup(line); hit {
		return
	}
	h.Stats.PrefIssued++
	h.beyondL1(line) // walk lower levels for fill state
	h.l1d.fill(line, true)
}

func (h *Hierarchy) prefetchIntoL2(line uint64) {
	h.Stats.PrefIssued++
	h.l2.fill(line, true)
}

// --- IPCP-class L1 prefetcher: per-PC stride classification ---

type ipcpEntry struct {
	pc       uint64
	lastLine uint64
	stride   int64
	conf     uint8
}

type ipcpPrefetcher struct {
	entries [64]ipcpEntry
}

func newIPCP() *ipcpPrefetcher { return &ipcpPrefetcher{} }

// trainAndPredict returns up to two prefetch lines in issue order (degree 2),
// by value so the per-load predict path never allocates.
func (p *ipcpPrefetcher) trainAndPredict(pc, line uint64) ([2]uint64, int) {
	var out [2]uint64
	e := &p.entries[(pc>>2)%64]
	if e.pc != pc {
		*e = ipcpEntry{pc: pc, lastLine: line}
		return out, 0
	}
	d := int64(line) - int64(e.lastLine)
	e.lastLine = line
	if d == 0 {
		return out, 0
	}
	if d == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = d
		e.conf = 0
		return out, 0
	}
	if e.conf >= 2 {
		// Issue two prefetches down the stream (degree 2).
		out[0] = uint64(int64(line) + d)
		out[1] = uint64(int64(line) + 2*d)
		return out, 2
	}
	return out, 0
}

// --- VLDP-class L2 prefetcher: per-page delta history ---

type vldpEntry struct {
	page     uint64
	lastLine uint64
	delta    [2]int64 // last two deltas
	valid    uint8
}

// The delta-pattern table is a fixed open-addressed hash table instead of a
// Go map: no per-insert allocation, no hash-map overhead on the L2 miss path,
// and — unlike the map's delete-random-key eviction — fully deterministic
// when the bound is hit. Capacity matches the old map bound; below it the two
// are behaviorally identical (exact-key insert/overwrite and lookup, no
// eviction). At capacity the table resets wholesale, which quick-profile
// workloads never reach (measured peak occupancy ~3.7k of 4096).
const (
	dptSlots   = 8192 // power of two, 2x capacity keeps probe chains short
	dptMaxKeys = 4096
)

type dptSlot struct {
	d1, d2 int64
	next   int64
	used   bool
}

type vldpPrefetcher struct {
	entries [32]vldpEntry
	// Delta-pattern table: maps (d1,d2) to the next predicted delta.
	dpt  [dptSlots]dptSlot
	nDPT int
}

func newVLDP() *vldpPrefetcher { return &vldpPrefetcher{} }

func dptHash(d1, d2 int64) uint64 {
	h := uint64(d1)*0x9E3779B97F4A7C15 ^ uint64(d2)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return h & (dptSlots - 1)
}

// dptSlotFor linear-probes to the slot holding (d1,d2), or the empty slot
// where it would be inserted. The table never fills completely (nDPT is
// capped at dptMaxKeys = dptSlots/2), so a probe always terminates.
func (p *vldpPrefetcher) dptSlotFor(d1, d2 int64) *dptSlot {
	for i := dptHash(d1, d2); ; i = (i + 1) & (dptSlots - 1) {
		s := &p.dpt[i]
		if !s.used || (s.d1 == d1 && s.d2 == d2) {
			return s
		}
	}
}

func (p *vldpPrefetcher) train(line uint64) { p.trainAndPredict(line) }

func (p *vldpPrefetcher) trainAndPredict(line uint64) (uint64, bool) {
	page := line >> 6 // 4KB pages of 64B lines
	e := &p.entries[page%32]
	if e.page != page {
		*e = vldpEntry{page: page, lastLine: line}
		return 0, false
	}
	d := int64(line) - int64(e.lastLine)
	e.lastLine = line
	if d == 0 {
		return 0, false
	}
	if e.valid >= 2 {
		s := p.dptSlotFor(e.delta[0], e.delta[1])
		if !s.used {
			if p.nDPT >= dptMaxKeys { // bounded table: deterministic reset
				p.dpt = [dptSlots]dptSlot{}
				p.nDPT = 0
				s = p.dptSlotFor(e.delta[0], e.delta[1])
			}
			*s = dptSlot{d1: e.delta[0], d2: e.delta[1], used: true}
			p.nDPT++
		}
		s.next = d
	}
	e.delta[0], e.delta[1] = e.delta[1], d
	if e.valid < 2 {
		e.valid++
		return 0, false
	}
	if s := p.dptSlotFor(e.delta[0], e.delta[1]); s.used && s.next != 0 {
		return uint64(int64(line) + s.next), true
	}
	return 0, false
}
