package simpoint

import (
	"testing"
	"testing/quick"
)

// synthetic phases: phase A executes PCs around 0x1000, phase B around
// 0x9000; collector should produce clearly clusterable intervals.
func collectPhases(intervalLen uint64, pattern []byte) *BBVCollector {
	c := NewBBVCollector(intervalLen)
	for _, ph := range pattern {
		for i := uint64(0); i < intervalLen; i++ {
			base := uint64(0x1000)
			if ph == 'B' {
				base = 0x9000
			}
			c.Observe(base + (i%16)*4)
		}
	}
	c.Flush()
	return c
}

func TestCollectorChunksIntervals(t *testing.T) {
	c := collectPhases(1000, []byte("AABB"))
	if got := len(c.Intervals()); got != 4 {
		t.Fatalf("intervals = %d, want 4", got)
	}
}

func TestPickSeparatesPhases(t *testing.T) {
	c := collectPhases(1000, []byte("AAAABBBBAAAA"))
	sps := Pick(c.Intervals(), 2, 7)
	if len(sps) != 2 {
		t.Fatalf("simpoints = %d, want 2", len(sps))
	}
	// Weights: 8 A-intervals vs 4 B-intervals.
	if !(sps[0].Weight > sps[1].Weight) {
		t.Errorf("weights not ordered: %+v", sps)
	}
	if w := sps[0].Weight + sps[1].Weight; w < 0.99 || w > 1.01 {
		t.Errorf("weights sum to %v", w)
	}
	// The heavier simpoint must be an A interval (index <4 or >=8).
	rep := sps[0].Interval
	if rep >= 4 && rep < 8 {
		t.Errorf("heavy simpoint %d is a B interval", rep)
	}
}

func TestPickSingleCluster(t *testing.T) {
	c := collectPhases(500, []byte("AAAA"))
	sps := Pick(c.Intervals(), 3, 1)
	// All intervals identical: a single cluster suffices.
	total := 0.0
	for _, s := range sps {
		total += s.Weight
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("weights sum %v", total)
	}
}

func TestPickDeterministic(t *testing.T) {
	c := collectPhases(1000, []byte("AABBAABB"))
	a := Pick(c.Intervals(), 2, 42)
	b := Pick(c.Intervals(), 2, 42)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic pick: %+v vs %+v", a, b)
		}
	}
}

func TestPickEmptyAndSmall(t *testing.T) {
	if Pick(nil, 3, 1) != nil {
		t.Error("empty input should give nil")
	}
	c := collectPhases(100, []byte("A"))
	sps := Pick(c.Intervals(), 5, 1)
	if len(sps) != 1 || sps[0].Weight != 1 {
		t.Errorf("single interval: %+v", sps)
	}
}

func TestPickKAtLeastIntervalCount(t *testing.T) {
	// Distinct intervals with k == n and k > n: every interval becomes its
	// own cluster, each weight 1/n, no representative repeats.
	c := collectPhases(1000, []byte("ABAB"))
	for _, k := range []int{4, 9} {
		sps := Pick(c.Intervals(), k, 3)
		if len(sps) == 0 || len(sps) > 4 {
			t.Fatalf("k=%d: got %d simpoints for 4 intervals", k, len(sps))
		}
		seen := map[int]bool{}
		sum := 0.0
		for _, s := range sps {
			if seen[s.Interval] {
				t.Fatalf("k=%d: duplicate representative %d", k, s.Interval)
			}
			seen[s.Interval] = true
			sum += s.Weight
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("k=%d: weights sum to %v", k, sum)
		}
	}
}

func TestPickDeterministicAcrossCollections(t *testing.T) {
	// Determinism must hold for independently rebuilt inputs, not just for
	// the same map values (map iteration order varies between runs).
	mk := func() []map[uint64]float64 {
		return collectPhases(1000, []byte("AABBAABBAB")).Intervals()
	}
	a := Pick(mk(), 3, 42)
	b := Pick(mk(), 3, 42)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic pick: %+v vs %+v", a, b)
		}
	}
}

func TestObserveBlockMatchesObserve(t *testing.T) {
	// Single-instruction blocks must be exactly equivalent to Observe.
	a := NewBBVCollector(100)
	b := NewBBVCollector(100)
	for i := uint64(0); i < 1000; i++ {
		pc := 0x1000 + (i%37)*4
		a.Observe(pc)
		b.ObserveBlock(pc, 1)
	}
	a.Flush()
	b.Flush()
	ia, ib := a.Intervals(), b.Intervals()
	if len(ia) != len(ib) {
		t.Fatalf("intervals: %d vs %d", len(ia), len(ib))
	}
	for i := range ia {
		if dist(ia[i], ib[i]) != 0 {
			t.Fatalf("interval %d differs", i)
		}
	}
}

func TestObserveBlockSplitsAtBoundaries(t *testing.T) {
	// Blocks larger than the remaining interval room are split exactly:
	// every sealed interval holds intervalLen instructions.
	c := NewBBVCollector(100)
	c.ObserveBlock(0x1000, 70)
	c.ObserveBlock(0x2000, 260) // spans three boundaries
	if got := len(c.Intervals()); got != 3 {
		t.Fatalf("sealed intervals = %d, want 3", got)
	}
	for i, iv := range c.Intervals() {
		sum := 0.0
		for _, w := range iv {
			sum += w
		}
		if sum != 100 {
			t.Fatalf("interval %d holds %v insts, want 100", i, sum)
		}
	}
	// 30 insts remain in the open interval: below half, dropped by Flush.
	c.Flush()
	if got := len(c.Intervals()); got != 3 {
		t.Fatalf("after flush: %d intervals, want 3 (short tail dropped)", got)
	}
}

func TestObserveBlockFlushKeepsHalfTail(t *testing.T) {
	c := NewBBVCollector(100)
	c.ObserveBlock(0x1000, 150)
	c.ObserveBlock(0x9000, 150)
	c.ObserveBlock(0x1000, 80)
	c.Flush()
	// 380 insts -> 3 full intervals + an 80-inst tail (kept: >= half).
	ivs := c.Intervals()
	if len(ivs) != 4 {
		t.Fatalf("intervals = %d, want 4", len(ivs))
	}
	if ivs[0][0x1000>>5] != 100 {
		t.Fatalf("interval 0: %+v", ivs[0])
	}
	// The first block's last 50 insts and the second block's first 50
	// share interval 1.
	if ivs[1][0x1000>>5] != 50 || ivs[1][0x9000>>5] != 50 {
		t.Fatalf("interval 1 split wrong: %+v", ivs[1])
	}
}

// Property: weights always sum to ~1 and intervals are valid indices.
func TestPickInvariants_Property(t *testing.T) {
	f := func(seed uint64, pat []bool) bool {
		if len(pat) == 0 || len(pat) > 24 {
			return true
		}
		pattern := make([]byte, len(pat))
		for i, b := range pat {
			if b {
				pattern[i] = 'B'
			} else {
				pattern[i] = 'A'
			}
		}
		c := collectPhases(200, pattern)
		sps := Pick(c.Intervals(), 3, seed)
		sum := 0.0
		for _, s := range sps {
			if s.Interval < 0 || s.Interval >= len(c.Intervals()) {
				return false
			}
			sum += s.Weight
		}
		return sum > 0.99 && sum < 1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDistSymmetry_Property(t *testing.T) {
	f := func(a, b []uint8) bool {
		va := make(map[uint64]float64)
		vb := make(map[uint64]float64)
		for i, x := range a {
			va[uint64(i%8)] += float64(x)
		}
		for i, x := range b {
			vb[uint64(i%8)] += float64(x)
		}
		return approx(dist(va, vb), dist(vb, va))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestPickDeterministicUnderTies(t *testing.T) {
	// Pick must be a pure function of (intervals, k, seed): every float
	// reduction walks keys in sorted order, so repeated calls — including
	// across processes — agree bit for bit. Map-iteration-order sums here
	// used to flip k-means tie-breaks on real workloads (two clusterings of
	// leela's BBVs tied, and the sampled Result flipped with them). Many
	// near-identical dense vectors maximize tie pressure.
	intervals := make([]map[uint64]float64, 64)
	for i := range intervals {
		v := make(map[uint64]float64, 16)
		for b := 0; b < 16; b++ {
			v[uint64(0x1000+b*4)] = float64(100 + (i*b)%3)
		}
		intervals[i] = v
	}
	want := Pick(intervals, 6, 42)
	for trial := 0; trial < 50; trial++ {
		got := Pick(intervals, 6, 42)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d points, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d point %d: %+v != %+v", trial, i, got[i], want[i])
			}
		}
	}
}
