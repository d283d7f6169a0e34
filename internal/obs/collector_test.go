package obs

import "testing"

// fakeRun registers a synthetic core whose counters are driven directly.
type fakeRun struct {
	cycles, retired, misp uint64
	active                float64
}

func (f *fakeRun) register(r *Registry) {
	r.Counter(CtrCycles, func() uint64 { return f.cycles })
	r.Counter(CtrRetired, func() uint64 { return f.retired })
	r.Counter(CtrMispredicts, func() uint64 { return f.misp })
	r.Gauge(GaugeActiveHTs, func() float64 { return f.active })
	r.Gauge(GaugeEpoch, func() float64 { return 1 })
}

func TestCollectorSamplesAtIntervals(t *testing.T) {
	c := NewCollector(100)
	f := &fakeRun{}
	f.register(c.Registry)

	for cyc := uint64(1); cyc <= 250; cyc++ {
		f.cycles = cyc
		f.retired = cyc * 2 // IPC 2.0
		if cyc%10 == 0 {
			f.misp++
		}
		if cyc > 150 {
			f.active = 1
		}
		c.MaybeSample(cyc)
	}
	f.cycles, f.retired = 260, 520
	c.Finish(260)

	s := c.Series()
	if len(s) != 3 {
		t.Fatalf("got %d samples, want 3 (cycle 100, 200, final 260)", len(s))
	}
	if s[0].Cycle != 100 || s[1].Cycle != 200 || s[2].Cycle != 260 {
		t.Errorf("sample cycles = %d,%d,%d; want 100,200,260", s[0].Cycle, s[1].Cycle, s[2].Cycle)
	}
	if s[0].IPC != 2.0 || s[1].IPC != 2.0 {
		t.Errorf("interval IPC = %v,%v; want 2.0", s[0].IPC, s[1].IPC)
	}
	// 10 mispredicts per 200 retired insts = 50 MPKI in each full interval.
	if s[1].MPKI != 50 {
		t.Errorf("interval MPKI = %v, want 50", s[1].MPKI)
	}
	if s[0].ActiveHTs != 0 || s[1].ActiveHTs != 1 {
		t.Errorf("active HTs = %v,%v; want 0,1", s[0].ActiveHTs, s[1].ActiveHTs)
	}
	// Finish is idempotent at the same cycle.
	c.Finish(260)
	if len(c.Series()) != 3 {
		t.Errorf("Finish re-sampled at an already-sampled cycle")
	}
}

func TestCollectorDisabledSampling(t *testing.T) {
	c := NewCollector(0)
	(&fakeRun{}).register(c.Registry)
	for cyc := uint64(1); cyc <= 100; cyc++ {
		c.MaybeSample(cyc)
	}
	c.Finish(100)
	if len(c.Series()) != 0 {
		t.Errorf("interval 0 must disable sampling, got %d samples", len(c.Series()))
	}
}
