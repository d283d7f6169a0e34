package cache

import (
	"bytes"
	"reflect"
	"testing"

	"phelps/internal/codec"
)

type accgen struct{ s uint64 }

func (g *accgen) next() uint64 {
	g.s = g.s*6364136223846793005 + 1442695040888963407
	return g.s
}

// drive issues a deterministic mixed access stream and returns the latency
// sum (a cheap behavioral fingerprint on top of Stats equality).
func drive(h *Hierarchy, seed uint64, n int) uint64 {
	g := accgen{s: seed}
	var now, sum uint64
	for i := 0; i < n; i++ {
		v := g.next()
		pc := 0x4000 + (v>>4&0xff)*4
		// A few strided streams plus a random tail: exercises both
		// prefetchers, MSHR pressure, and replacement.
		addr := (v>>16&0x3)*0x100000 + uint64(i%4096)*64 + v>>40&0x38
		switch v % 4 {
		case 0:
			sum += h.Load(pc, addr, now)
		case 1:
			sum += h.Store(addr, now)
		case 2:
			sum += h.FetchInst(pc, now)
		default:
			sum += h.Load(pc, addr^0xfff0, now)
		}
		now += 3
	}
	return sum
}

// TestHierarchyStateRoundTrip warms a hierarchy, round-trips its state into a
// fresh one, and requires identical behavior (latency fingerprint and stats)
// on a further access stream.
func TestHierarchyStateRoundTrip(t *testing.T) {
	cfgs := map[string]Config{
		"default": DefaultConfig(),
		"no-pref": func() Config {
			c := DefaultConfig()
			c.L1Prefetch, c.L2Prefetch = false, false
			return c
		}(),
		"no-mshr": func() Config {
			c := DefaultConfig()
			c.MSHRs = 0
			return c
		}(),
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			orig := New(cfg)
			drive(orig, 99, 50000)
			blob := orig.AppendState(nil)

			loaded := New(cfg)
			r := codec.NewReader(blob)
			if err := loaded.LoadState(r); err != nil {
				t.Fatalf("LoadState: %v", err)
			}
			if err := r.Expect(0); err != nil {
				t.Fatalf("trailing bytes after LoadState: %d", r.Len())
			}
			if !bytes.Equal(blob, loaded.AppendState(nil)) {
				t.Fatalf("re-serialized state differs from original blob")
			}
			if a, b := drive(orig, 7, 50000), drive(loaded, 7, 50000); a != b {
				t.Fatalf("latency fingerprint diverged after round-trip: orig=%d loaded=%d", a, b)
			}
			if orig.Stats != loaded.Stats {
				t.Fatalf("stats diverged after round-trip:\norig   %+v\nloaded %+v", orig.Stats, loaded.Stats)
			}
			if !bytes.Equal(orig.AppendState(nil), loaded.AppendState(nil)) {
				t.Fatalf("state diverged after post-load stream")
			}
		})
	}
}

// TestHierarchyLoadStateOverwritesAll pins what lets sampled measurement
// decode one point after another into the same hierarchy: LoadState into a
// hierarchy that holds other, further-driven state leaves it equal, field
// for field, to the same state loaded into a fresh one. The reused
// hierarchy holds more lines per set than the loaded state, some of them
// unused prefetches, so the ways it must clear are exercised.
func TestHierarchyLoadStateOverwritesAll(t *testing.T) {
	load := func(t *testing.T, h *Hierarchy, blob []byte) {
		t.Helper()
		r := codec.NewReader(blob)
		if err := h.LoadState(r); err != nil || r.Expect(0) != nil {
			t.Fatalf("LoadState: %v (%d bytes left)", err, r.Len())
		}
	}
	noMSHR := DefaultConfig()
	noMSHR.MSHRs = 0
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "no-mshr": noMSHR} {
		t.Run(name, func(t *testing.T) {
			small, big := New(cfg), New(cfg)
			drive(small, 1, 2000)
			drive(big, 2, 60000)
			blobSmall, blobBig := small.AppendState(nil), big.AppendState(nil)

			fresh := New(cfg)
			load(t, fresh, blobSmall)
			reused := New(cfg)
			load(t, reused, blobBig)
			drive(reused, 3, 30000)
			// Fetching every other code line leaves each next-line prefetch
			// unused, flagged as a prefetch at every depth of the L1I sets.
			for line := uint64(0); line < 4096; line += 2 {
				reused.FetchInst(line*LineBytes, 0)
			}
			load(t, reused, blobSmall)
			if !reflect.DeepEqual(fresh, reused) {
				t.Fatalf("state loaded over a used hierarchy differs from a fresh load")
			}
		})
	}
}

// TestHierarchyStateSize: StateSize is the exact length AppendState
// appends, for a fresh and a driven hierarchy with and without prefetchers,
// so a caller that sizes its buffer with it gets a blob with no slack
// capacity.
func TestHierarchyStateSize(t *testing.T) {
	noPref := DefaultConfig()
	noPref.L1Prefetch, noPref.L2Prefetch = false, false
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "no-pref": noPref} {
		h := New(cfg)
		for _, n := range []int{0, 50000} {
			drive(h, 5, n)
			if got, want := h.StateSize(), len(h.AppendState(nil)); got != want {
				t.Errorf("%s after %d accesses: StateSize %d, AppendState wrote %d", name, n, got, want)
			}
		}
	}
}

// TestHierarchyStateErrors: truncation and config mismatches are errors.
func TestHierarchyStateErrors(t *testing.T) {
	h := New(DefaultConfig())
	drive(h, 3, 5000)
	blob := h.AppendState(nil)
	for _, cut := range []int{0, 1, len(blob) / 3, len(blob) - 1} {
		if err := New(DefaultConfig()).LoadState(codec.NewReader(blob[:cut])); err == nil {
			t.Fatalf("LoadState accepted truncation to %d bytes", cut)
		}
	}
	small := DefaultConfig()
	small.L3Sets = 1024
	if err := New(small).LoadState(codec.NewReader(blob)); err == nil {
		t.Fatalf("smaller hierarchy accepted larger state")
	}
	noPref := DefaultConfig()
	noPref.L1Prefetch = false
	if err := New(noPref).LoadState(codec.NewReader(blob)); err == nil {
		t.Fatalf("prefetcher-less hierarchy accepted prefetcher state")
	}

	// Malformed live-lines-only fields, patched into a fresh hierarchy's
	// state: it ends with the delta-pattern count (zero), and its first set
	// occupancy (L1I set 0) follows the kind byte, the stats and the L1I set
	// count.
	fresh := New(DefaultConfig()).AppendState(nil)
	patterns := func(count uint32, slots ...uint16) []byte {
		b := append([]byte(nil), fresh[:len(fresh)-4]...)
		b = codec.U32(b, count)
		for _, i := range slots {
			b = codec.I64(codec.I64(codec.I64(codec.U16(b, i), 1), 2), 3)
		}
		return b
	}
	overfull := append([]byte(nil), fresh...)
	copy(overfull[1+11*8+4:], codec.U16(nil, uint16(DefaultConfig().L1IWays+1)))
	if err := New(DefaultConfig()).LoadState(codec.NewReader(patterns(2, 5, 9))); err != nil {
		t.Fatalf("well-formed patched state rejected: %v", err)
	}
	for name, b := range map[string][]byte{
		"set occupancy above ways": overfull,
		"pattern slot index 8192":  patterns(1, dptSlots),
		"repeated slot index":      patterns(2, 7, 7),
		"decreasing slot index":    patterns(2, 9, 5),
		"pattern count above 4096": patterns(dptMaxKeys + 1),
	} {
		if err := New(DefaultConfig()).LoadState(codec.NewReader(b)); err == nil {
			t.Errorf("LoadState accepted %s", name)
		}
	}
}

// TestHierarchyStateFormatPinned pins the live-lines-only state layout: its
// length follows from the warmed hierarchy's occupancy (each set costs its
// 2-byte occupancy plus 9 bytes per valid line; each used delta pattern 26
// bytes), and its FNV-1a-64 sum is recorded. A fresh Table III hierarchy's
// state — occupancies plus the prefetcher entry tables — stays under 16 KiB.
func TestHierarchyStateFormatPinned(t *testing.T) {
	h := New(DefaultConfig())
	drive(h, 99, 50000)
	blob := h.AppendState(nil)
	want := 1 + 11*8 + 4 + 8*len(h.mshr) + 1 + 25*len(h.ipcp.entries) + 1 + 33*len(h.vldp.entries) + 4 + 26*h.vldp.nDPT
	for _, l := range []*level{h.l1i, h.l1d, h.l2, h.l3} {
		want += 4 + 2*len(l.cnt)
		for _, n := range l.cnt {
			want += 9 * int(n)
		}
	}
	if n, sum := len(blob), codec.Sum64(blob); n != want || sum != 0xe32a1f74308719ab {
		t.Errorf("warmed hierarchy state changed: %d bytes sum %#x, want %d bytes sum 0xe32a1f74308719ab", n, sum, want)
	}
	if n := len(New(DefaultConfig()).AppendState(nil)); n >= 16<<10 {
		t.Errorf("fresh hierarchy state is %d bytes, want under 16 KiB", n)
	}
}

// fuzzConfig is a small geometry without the L1 prefetcher, whose fixed
// 1.6 KB entry table has no variable-length fields, so fuzz inputs stay
// near 1 KB and the fuzzer's minimization of each new input stays short.
// The set, MSHR and delta-pattern paths are the same as at Table III sizes.
func fuzzConfig() Config {
	c := DefaultConfig()
	c.L1ISets, c.L1DSets, c.L2Sets, c.L3Sets = 2, 2, 4, 8
	c.MSHRs = 4
	c.L1Prefetch = false
	return c
}

// FuzzHierarchyLoadState: arbitrary bytes either fail LoadState (or leave
// trailing bytes) or load a state that re-encodes to exactly those bytes and
// then serves accesses without panicking. One hierarchy is reused across
// inputs, which keeps executions cheap and checks that a successful
// LoadState replaces every bit of the previous state. The committed corpus
// holds fresh and warmed fuzzConfig states.
func FuzzHierarchyLoadState(f *testing.F) {
	h := New(fuzzConfig())
	f.Fuzz(func(t *testing.T, b []byte) {
		r := codec.NewReader(b)
		if h.LoadState(r) != nil || r.Expect(0) != nil {
			return
		}
		if re := h.AppendState(nil); !bytes.Equal(re, b) {
			t.Fatalf("loaded state re-encodes to %d different bytes (input %d)", len(re), len(b))
		}
		drive(h, 1, 500)
	})
}
