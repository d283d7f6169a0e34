package core

import "sort"

// This file implements Section V-B: identifying delinquent branches and the
// loops that contain them, via the Delinquent Branch Table (DBT), DBT-Max,
// and the Loop Table (LT).

// LoopBounds identifies a loop by its backward branch PC and target; a
// branch PC p is inside the loop iff target <= p <= branch.
type LoopBounds struct {
	Branch uint64 // backward branch PC
	Target uint64 // branch target (loop start)
	Valid  bool
}

// Contains reports whether pc lies within the loop's PC bounds.
func (l LoopBounds) Contains(pc uint64) bool {
	return l.Valid && pc >= l.Target && pc <= l.Branch
}

// Span is the loop's PC extent (tightness metric).
func (l LoopBounds) Span() uint64 {
	if !l.Valid {
		return ^uint64(0)
	}
	return l.Branch - l.Target
}

// DBTEntry is one Delinquent Branch Table entry (Fig. 6 top).
type DBTEntry struct {
	PC    uint64
	Misp  uint64
	Inner LoopBounds
	Outer LoopBounds
}

// DBT is the 256-entry fully-associative Delinquent Branch Table. When full,
// the entry with the lowest misprediction count is evicted (this is what
// lets a benchmark with too many static branches — gcc — thrash the DBT and
// stay in the "gathering delinquency" state). Entries live in a fixed slot
// array, found through a pc→slot index; the victim search scans the array.
type DBT struct {
	slots []DBTEntry     // one per entry; slots[:len(index)] are live
	index map[uint64]int // pc → slot
	// Evictions counts replacement victims (Fig. 14 gcc diagnosis).
	Evictions uint64
	// victims remembers evicted PCs across epochs (attribution only; not a
	// hardware structure).
	victims map[uint64]bool
}

// NewDBT returns a DBT with the given capacity (paper: 256).
func NewDBT(size int) *DBT {
	return &DBT{
		slots:   make([]DBTEntry, size),
		index:   make(map[uint64]int, size),
		victims: make(map[uint64]bool),
	}
}

// Victim reports whether pc was ever evicted from the DBT.
func (d *DBT) Victim(pc uint64) bool { return d.victims[pc] }

// Lookup returns the entry for pc, or nil. The entry is valid until the
// next RecordMisp or Reset.
func (d *DBT) Lookup(pc uint64) *DBTEntry {
	if i, ok := d.index[pc]; ok {
		return &d.slots[i]
	}
	return nil
}

// RecordMisp increments the misprediction count for pc, allocating (and
// possibly evicting) as needed. Returns the entry.
func (d *DBT) RecordMisp(pc uint64) *DBTEntry {
	i, ok := d.index[pc]
	if !ok {
		i = len(d.index)
		if i == len(d.slots) {
			// Evict the entry with the minimum count, the lowest PC on a tie.
			i = 0
			for j := range d.slots {
				c, v := &d.slots[j], &d.slots[i]
				if c.Misp < v.Misp || (c.Misp == v.Misp && c.PC < v.PC) {
					i = j
				}
			}
			victim := d.slots[i].PC
			delete(d.index, victim)
			d.victims[victim] = true
			d.Evictions++
		}
		d.slots[i] = DBTEntry{PC: pc}
		d.index[pc] = i
	}
	e := &d.slots[i]
	e.Misp++
	return e
}

// TrainLoop updates the inner/outer loop bounds of pc's entry given the most
// recently retired backward branch. The two tightest enclosing loops are
// kept, sorted inner (tightest) then outer.
func (d *DBT) TrainLoop(pc uint64, bb LoopBounds) {
	e := d.Lookup(pc)
	if e == nil || !bb.Valid || !bb.Contains(pc) {
		return
	}
	if e.Inner.Valid && bb == e.Inner {
		return
	}
	if e.Outer.Valid && bb == e.Outer {
		return
	}
	switch {
	case !e.Inner.Valid:
		e.Inner = bb
	case bb.Span() < e.Inner.Span():
		e.Outer = e.Inner
		e.Inner = bb
	case !e.Outer.Valid || bb.Span() < e.Outer.Span():
		e.Outer = bb
	}
}

// Reset clears the DBT in place for a new epoch.
func (d *DBT) Reset() { clear(d.index) }

// Entries returns all entries (test/report use), valid until the next
// RecordMisp or Reset.
func (d *DBT) Entries() []*DBTEntry {
	out := make([]*DBTEntry, 0, len(d.index))
	for i := range d.slots[:len(d.index)] {
		out = append(out, &d.slots[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// TopDelinquent returns up to max entries ranked by misprediction count
// (the DBT-Max structure: incrementally-maintained ranking; modeled here as
// a ranking pass, which is architecturally equivalent at epoch end).
func (d *DBT) TopDelinquent(max int) []*DBTEntry {
	all := d.Entries()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Misp != all[j].Misp {
			return all[i].Misp > all[j].Misp
		}
		return all[i].PC < all[j].PC
	})
	if len(all) > max {
		all = all[:max]
	}
	return all
}

// LTEntry is one Loop Table entry (Fig. 6 bottom): an outermost loop, its
// optional nested inner loop, the delinquent branches it contains, and the
// aggregate misprediction count.
type LTEntry struct {
	Loop       LoopBounds
	IsNested   bool
	InnerLoop  LoopBounds
	Branches   []uint64          // delinquent branch PCs in this loop
	BranchMisp map[uint64]uint64 // per-branch misprediction counts
	Misp       uint64            // aggregate mispredictions
}

// BuildLT performs the end-of-epoch pass (Section V-B): each DBT-Max branch
// clearing the delinquency threshold creates or updates an LT entry for its
// outermost loop. Returns up to ltSize entries, most delinquent first.
// Branches with no trained loop are skipped (they surface as the "del. but
// not in loop" attribution category).
func BuildLT(dbt *DBT, dbtMaxSize, ltSize int, mispThreshold uint64) []*LTEntry {
	byLoop := make(map[LoopBounds]*LTEntry)
	for _, e := range dbt.TopDelinquent(dbtMaxSize) {
		if e.Misp < mispThreshold {
			continue
		}
		if !e.Inner.Valid {
			continue // not in a loop
		}
		outermost := e.Inner
		nested := false
		inner := LoopBounds{}
		if e.Outer.Valid {
			outermost = e.Outer
			nested = true
			inner = e.Inner
		}
		lt := byLoop[outermost]
		if lt == nil {
			lt = &LTEntry{Loop: outermost, BranchMisp: make(map[uint64]uint64)}
			byLoop[outermost] = lt
		}
		if nested && !lt.IsNested {
			lt.IsNested = true
			lt.InnerLoop = inner
		}
		lt.Branches = append(lt.Branches, e.PC)
		lt.BranchMisp[e.PC] = e.Misp
		lt.Misp += e.Misp
	}
	out := make([]*LTEntry, 0, len(byLoop))
	for _, lt := range byLoop {
		sort.Slice(lt.Branches, func(i, j int) bool { return lt.Branches[i] < lt.Branches[j] })
		out = append(out, lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Misp != out[j].Misp {
			return out[i].Misp > out[j].Misp
		}
		return out[i].Loop.Branch < out[j].Loop.Branch
	})
	if len(out) > ltSize {
		out = out[:ltSize]
	}
	return out
}

// TripStats tracks iterations-per-visit for loop backward branches, used by
// the Section V-J eligibility rule ("a loop is ineligible if it does not
// iterate enough per visit").
type TripStats struct {
	iters  map[uint64]uint64 // taken instances per backward-branch PC
	visits map[uint64]uint64 // not-taken (exit) instances
}

// NewTripStats returns empty stats.
func NewTripStats() *TripStats {
	return &TripStats{iters: make(map[uint64]uint64), visits: make(map[uint64]uint64)}
}

// Record notes a retired instance of a backward branch.
func (t *TripStats) Record(pc uint64, taken bool) {
	if taken {
		t.iters[pc]++
	} else {
		t.visits[pc]++
	}
}

// AvgTrips returns the mean iterations per visit for a loop branch.
func (t *TripStats) AvgTrips(pc uint64) float64 {
	v := t.visits[pc]
	if v == 0 {
		// Never exited: either still in its first visit (long-running) or
		// unobserved. Treat observed iterations as one long visit.
		return float64(t.iters[pc])
	}
	return float64(t.iters[pc]) / float64(v)
}

// Reset clears the stats for a new epoch.
func (t *TripStats) Reset() {
	t.iters = make(map[uint64]uint64)
	t.visits = make(map[uint64]uint64)
}
