package core

import (
	"testing"
	"testing/quick"
)

func TestTableIITotalCost(t *testing.T) {
	got := TotalCostKB()
	if got < 10.80 || got > 10.84 {
		t.Errorf("Table II total = %.2f KB, paper says 10.82 KB", got)
	}
	if s := FormatCostTable(); len(s) < 100 {
		t.Error("cost table render too short")
	}
	if len(ComponentCosts()) != 20 {
		t.Errorf("expected 20 cost rows, got %d", len(ComponentCosts()))
	}
}

func TestLoopBoundsContains(t *testing.T) {
	l := LoopBounds{Branch: 0x120, Target: 0x100, Valid: true}
	for _, c := range []struct {
		pc   uint64
		want bool
	}{{0x100, true}, {0x110, true}, {0x120, true}, {0x0FC, false}, {0x124, false}} {
		if got := l.Contains(c.pc); got != c.want {
			t.Errorf("Contains(%#x) = %v, want %v", c.pc, got, c.want)
		}
	}
	if (LoopBounds{}).Contains(0x100) {
		t.Error("invalid bounds must contain nothing")
	}
}

func TestDBTRecordsAndRanks(t *testing.T) {
	d := NewDBT(256)
	for i := 0; i < 10; i++ {
		d.RecordMisp(0x100)
	}
	for i := 0; i < 5; i++ {
		d.RecordMisp(0x200)
	}
	d.RecordMisp(0x300)
	top := d.TopDelinquent(2)
	if len(top) != 2 || top[0].PC != 0x100 || top[1].PC != 0x200 {
		t.Errorf("ranking wrong: %+v", top)
	}
	if top[0].Misp != 10 {
		t.Errorf("count = %d", top[0].Misp)
	}
}

func TestDBTEviction(t *testing.T) {
	d := NewDBT(4)
	// Fill with varying counts.
	for pc := uint64(0); pc < 4; pc++ {
		for i := uint64(0); i <= pc; i++ {
			d.RecordMisp(0x100 + pc*4)
		}
	}
	// New PC must evict the minimum-count entry (0x100, count 1).
	d.RecordMisp(0x900)
	if d.Lookup(0x100) != nil {
		t.Error("minimum-count entry not evicted")
	}
	if d.Lookup(0x900) == nil {
		t.Error("new entry not inserted")
	}
	if d.Evictions != 1 {
		t.Errorf("evictions = %d", d.Evictions)
	}
}

func TestDBTThrashingUnderManyStaticBranches(t *testing.T) {
	// The gcc anatomy: far more static branch sites than DBT entries keeps
	// every site's count low (constant evictions).
	d := NewDBT(256)
	for round := 0; round < 20; round++ {
		for site := uint64(0); site < 512; site++ {
			d.RecordMisp(0x1000 + site*4)
		}
	}
	if d.Evictions < 1000 {
		t.Errorf("expected heavy eviction traffic, got %d", d.Evictions)
	}
	// At most half the 512 sites can have accumulated their full count
	// (256-entry capacity); the rest remain "gathering delinquency".
	full := 0
	for _, e := range d.Entries() {
		if e.Misp == 20 {
			full++
		}
	}
	if full > 256 {
		t.Errorf("%d sites kept full counts; DBT capacity is 256", full)
	}
	if len(d.Entries()) > 256 {
		t.Errorf("DBT over capacity: %d", len(d.Entries()))
	}
}

// mapDBT is the DBT as a Go map scanned for each victim, kept as the
// reference the slot-array DBT must match.
type mapDBT struct {
	size      int
	entries   map[uint64]*DBTEntry
	evictions uint64
	victims   map[uint64]bool
}

func (d *mapDBT) recordMisp(pc uint64) {
	e := d.entries[pc]
	if e == nil {
		if len(d.entries) >= d.size {
			var victim *DBTEntry
			for _, cand := range d.entries {
				if victim == nil || cand.Misp < victim.Misp ||
					(cand.Misp == victim.Misp && cand.PC < victim.PC) {
					victim = cand
				}
			}
			delete(d.entries, victim.PC)
			d.victims[victim.PC] = true
			d.evictions++
		}
		e = &DBTEntry{PC: pc}
		d.entries[pc] = e
	}
	e.Misp++
}

// TestDBTMatchesMapScan drives the DBT and the map-scan reference with
// random mispredict streams over more static branches than entries
// (300–2,000 PCs, skewed so some stay resident), loop training and epoch
// resets, and requires the same entries, evictions and victims throughout.
func TestDBTMatchesMapScan(t *testing.T) {
	for _, npc := range []int{300, 700, 2000} {
		g := uint64(npc)
		next := func() uint64 {
			g = g*6364136223846793005 + 1442695040888963407
			return g >> 24
		}
		d := NewDBT(256)
		ref := &mapDBT{size: 256, entries: map[uint64]*DBTEntry{}, victims: map[uint64]bool{}}
		for step := 0; step < 60_000; step++ {
			v := next()
			// The lower of two uniform draws skews the stream toward low PCs.
			pc := 0x1000 + min(v%uint64(npc), v>>20%uint64(npc))*4
			d.RecordMisp(pc)
			ref.recordMisp(pc)
			if v>>32%4 == 0 {
				bb := LoopBounds{Branch: pc + v>>40%64*4, Target: pc - v>>48%64*4, Valid: true}
				d.TrainLoop(pc, bb)
				if e := ref.entries[pc]; e != nil {
					one := &DBT{slots: []DBTEntry{*e}, index: map[uint64]int{pc: 0}}
					one.TrainLoop(pc, bb)
					*e = one.slots[0]
				}
			}
			if step%20_000 == 19_999 {
				d.Reset()
				ref.entries = map[uint64]*DBTEntry{}
			}
			if step%997 != 0 && step != 59_999 {
				continue
			}
			got := d.Entries()
			if len(got) != len(ref.entries) || d.Evictions != ref.evictions {
				t.Fatalf("npc %d step %d: %d entries, %d evictions; reference %d, %d",
					npc, step, len(got), d.Evictions, len(ref.entries), ref.evictions)
			}
			for _, e := range got {
				if w := ref.entries[e.PC]; w == nil || *e != *w {
					t.Fatalf("npc %d step %d: entry %+v, reference %+v", npc, step, *e, w)
				}
			}
		}
		for r := uint64(0); r < uint64(npc); r++ {
			if pc := 0x1000 + r*4; d.Victim(pc) != ref.victims[pc] {
				t.Fatalf("npc %d: Victim(%#x) = %v, reference %v", npc, pc, d.Victim(pc), ref.victims[pc])
			}
		}
		if d.Evictions == 0 {
			t.Fatalf("npc %d: stream never filled the table", npc)
		}
	}
}

func TestTrainLoopKeepsTwoTightest(t *testing.T) {
	d := NewDBT(16)
	d.RecordMisp(0x110)
	wide := LoopBounds{Branch: 0x200, Target: 0x100, Valid: true}
	mid := LoopBounds{Branch: 0x150, Target: 0x108, Valid: true}
	tight := LoopBounds{Branch: 0x118, Target: 0x10C, Valid: true}
	d.TrainLoop(0x110, wide)
	e := d.Lookup(0x110)
	if e.Inner != wide || e.Outer.Valid {
		t.Fatalf("after wide: %+v", e)
	}
	d.TrainLoop(0x110, tight)
	if e.Inner != tight || e.Outer != wide {
		t.Fatalf("after tight: inner=%+v outer=%+v", e.Inner, e.Outer)
	}
	d.TrainLoop(0x110, mid)
	if e.Inner != tight || e.Outer != mid {
		t.Fatalf("after mid: inner=%+v outer=%+v", e.Inner, e.Outer)
	}
	// Re-observing existing bounds changes nothing.
	d.TrainLoop(0x110, tight)
	d.TrainLoop(0x110, mid)
	if e.Inner != tight || e.Outer != mid {
		t.Fatal("idempotence violated")
	}
}

func TestTrainLoopIgnoresNonEnclosing(t *testing.T) {
	d := NewDBT(16)
	d.RecordMisp(0x500)
	notEnclosing := LoopBounds{Branch: 0x200, Target: 0x100, Valid: true}
	d.TrainLoop(0x500, notEnclosing)
	if d.Lookup(0x500).Inner.Valid {
		t.Error("trained a loop that does not contain the branch")
	}
}

func TestBuildLTGroupsByOutermostLoop(t *testing.T) {
	d := NewDBT(256)
	inner := LoopBounds{Branch: 0x11bfc, Target: 0x11b80, Valid: true}
	outer := LoopBounds{Branch: 0x11c0c, Target: 0x11b60, Valid: true}
	// Two delinquent branches in the same nested loop (the Fig. 6 example).
	for i := 0; i < 5760; i++ {
		d.RecordMisp(0x11b98)
	}
	for i := 0; i < 7796; i++ {
		d.RecordMisp(0x11be0)
	}
	d.TrainLoop(0x11b98, inner)
	d.TrainLoop(0x11b98, outer)
	d.TrainLoop(0x11be0, inner)
	d.TrainLoop(0x11be0, outer)
	lt := BuildLT(d, 32, 8, 2000)
	if len(lt) != 1 {
		t.Fatalf("LT entries = %d, want 1", len(lt))
	}
	e := lt[0]
	if e.Loop != outer || !e.IsNested || e.InnerLoop != inner {
		t.Errorf("LT entry = %+v", e)
	}
	if e.Misp != 13556 {
		t.Errorf("aggregate misp = %d, want 13556 (Fig. 6)", e.Misp)
	}
	if len(e.Branches) != 2 {
		t.Errorf("branch list = %v", e.Branches)
	}
}

func TestBuildLTThresholdAndNoLoop(t *testing.T) {
	d := NewDBT(256)
	l := LoopBounds{Branch: 0x120, Target: 0x100, Valid: true}
	for i := 0; i < 3000; i++ {
		d.RecordMisp(0x104) // delinquent, in loop
	}
	d.TrainLoop(0x104, l)
	for i := 0; i < 100; i++ {
		d.RecordMisp(0x108) // below threshold
	}
	d.TrainLoop(0x108, l)
	for i := 0; i < 3000; i++ {
		d.RecordMisp(0x900) // delinquent, no loop trained
	}
	lt := BuildLT(d, 32, 8, 2000)
	if len(lt) != 1 {
		t.Fatalf("LT entries = %d, want 1", len(lt))
	}
	if len(lt[0].Branches) != 1 || lt[0].Branches[0] != 0x104 {
		t.Errorf("branches = %v", lt[0].Branches)
	}
}

func TestBuildLTCapsEntries(t *testing.T) {
	d := NewDBT(256)
	for k := uint64(0); k < 12; k++ {
		pc := 0x1000 + k*0x100
		l := LoopBounds{Branch: pc + 0x20, Target: pc, Valid: true}
		for i := uint64(0); i < 2000+k; i++ {
			d.RecordMisp(pc + 4)
		}
		d.TrainLoop(pc+4, l)
	}
	lt := BuildLT(d, 32, 8, 2000)
	if len(lt) != 8 {
		t.Fatalf("LT entries = %d, want 8 (capacity)", len(lt))
	}
	// Most delinquent first.
	for i := 1; i < len(lt); i++ {
		if lt[i-1].Misp < lt[i].Misp {
			t.Error("LT not sorted by delinquency")
		}
	}
}

func TestTripStats(t *testing.T) {
	ts := NewTripStats()
	// Two visits: 10 iterations then exit, 20 iterations then exit.
	for i := 0; i < 10; i++ {
		ts.Record(0x100, true)
	}
	ts.Record(0x100, false)
	for i := 0; i < 20; i++ {
		ts.Record(0x100, true)
	}
	ts.Record(0x100, false)
	if got := ts.AvgTrips(0x100); got != 15 {
		t.Errorf("AvgTrips = %v, want 15", got)
	}
	// Long-running loop that never exited.
	for i := 0; i < 500; i++ {
		ts.Record(0x200, true)
	}
	if got := ts.AvgTrips(0x200); got != 500 {
		t.Errorf("AvgTrips (no exit) = %v, want 500", got)
	}
	ts.Reset()
	if ts.AvgTrips(0x100) != 0 {
		t.Error("reset did not clear")
	}
}

// Property: DBT never exceeds capacity and total recorded mispredictions
// are conserved across surviving entries plus evictions.
func TestDBTCapacity_Property(t *testing.T) {
	f := func(pcs []uint16) bool {
		d := NewDBT(8)
		for _, p := range pcs {
			d.RecordMisp(uint64(p) * 4)
		}
		return len(d.Entries()) <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
