package bpred

import (
	"bytes"
	"reflect"
	"testing"

	"phelps/internal/codec"
)

// lcg is a tiny deterministic branch-stream generator: a pc out of a small
// working set (so tables see real contention) and a history-correlated
// outcome.
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s
}

func (l *lcg) branch() (pc uint64, taken bool) {
	v := l.next()
	return 0x1000 + (v>>8&0x3f)*4, v>>32&7 < 5
}

func builders() map[string]func() Predictor {
	return map[string]func() Predictor{
		"bimodal": func() Predictor { return NewBimodal(14) },
		"gshare":  func() Predictor { return NewGshare(15, 13) },
		"tage":    func() Predictor { return NewTAGE(DefaultTAGEConfig()) },
		"perfect": func() Predictor { return Perfect{} },
	}
}

// TestStateRoundTrip trains each predictor, round-trips its state through
// bytes into a fresh instance, and requires the original and the loaded copy
// to agree prediction-for-prediction on a further stream — the property the
// checkpoint cache's bit-identicality rests on.
func TestStateRoundTrip(t *testing.T) {
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			orig := build()
			g := lcg{s: 12345}
			for i := 0; i < 20000; i++ {
				pc, taken := g.branch()
				orig.PredictAndTrain(pc, taken)
			}
			blob := orig.AppendState(nil)

			loaded := build()
			r := codec.NewReader(blob)
			if err := loaded.LoadState(r); err != nil {
				t.Fatalf("LoadState: %v", err)
			}
			if err := r.Expect(0); err != nil {
				t.Fatalf("trailing bytes after LoadState: %d", r.Len())
			}
			// Re-serializing the loaded copy must reproduce the blob exactly.
			if !bytes.Equal(blob, loaded.AppendState(nil)) {
				t.Fatalf("re-serialized state differs from original blob")
			}
			for i := 0; i < 20000; i++ {
				pc, taken := g.branch()
				if a, b := orig.PredictAndTrain(pc, taken), loaded.PredictAndTrain(pc, taken); a != b {
					t.Fatalf("prediction %d diverged after round-trip: orig=%v loaded=%v", i, a, b)
				}
			}
			if !bytes.Equal(orig.AppendState(nil), loaded.AppendState(nil)) {
				t.Fatalf("state diverged after post-load stream")
			}
		})
	}
}

// TestStateSize: StateSize is the exact length AppendState appends, fresh
// and trained, so a caller that sizes its buffer with it gets a blob with no
// slack capacity.
func TestStateSize(t *testing.T) {
	for name, build := range builders() {
		p := build()
		for _, n := range []int{0, 20000} {
			g := lcg{s: 7}
			for i := 0; i < n; i++ {
				pc, taken := g.branch()
				p.PredictAndTrain(pc, taken)
			}
			if got, want := p.StateSize(), len(p.AppendState(nil)); got != want {
				t.Errorf("%s after %d branches: StateSize %d, AppendState wrote %d", name, n, got, want)
			}
		}
	}
}

// TestLoadStateOverwritesAll pins what lets sampled measurement decode one
// point after another into the same predictor: LoadState into a predictor
// that holds other, further-trained state leaves it equal, field for field,
// to the same state loaded into a fresh instance.
func TestLoadStateOverwritesAll(t *testing.T) {
	train := func(p Predictor, seed uint64, n int) {
		g := lcg{s: seed}
		for i := 0; i < n; i++ {
			p.PredictAndTrain(g.branch())
		}
	}
	load := func(t *testing.T, p Predictor, blob []byte) {
		t.Helper()
		r := codec.NewReader(blob)
		if err := p.LoadState(r); err != nil || r.Expect(0) != nil {
			t.Fatalf("LoadState: %v (%d bytes left)", err, r.Len())
		}
	}
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			a, b := build(), build()
			train(a, 1, 5000)
			train(b, 2, 40000)
			blobA, blobB := a.AppendState(nil), b.AppendState(nil)

			fresh := build()
			load(t, fresh, blobA)
			reused := build()
			load(t, reused, blobB)
			train(reused, 3, 20000)
			load(t, reused, blobA)
			if !reflect.DeepEqual(fresh, reused) {
				t.Fatalf("state loaded over a used predictor differs from a fresh load")
			}
		})
	}
}

// TestStateErrors: truncation and kind mismatches decode to errors, not
// panics or silent corruption.
func TestStateErrors(t *testing.T) {
	for name, build := range builders() {
		if name == "perfect" {
			continue // one tag byte; truncation below covers it via others
		}
		t.Run(name+"/truncated", func(t *testing.T) {
			p := build()
			g := lcg{s: 7}
			for i := 0; i < 1000; i++ {
				pc, taken := g.branch()
				p.PredictAndTrain(pc, taken)
			}
			blob := p.AppendState(nil)
			for _, cut := range []int{0, 1, len(blob) / 2, len(blob) - 1} {
				fresh := build()
				if err := fresh.LoadState(codec.NewReader(blob[:cut])); err == nil {
					t.Fatalf("LoadState accepted truncation to %d bytes", cut)
				}
			}
		})
	}
	t.Run("kind-mismatch", func(t *testing.T) {
		blob := NewBimodal(14).AppendState(nil)
		if err := NewGshare(15, 13).LoadState(codec.NewReader(blob)); err == nil {
			t.Fatalf("gshare accepted bimodal state")
		}
	})
	t.Run("size-mismatch", func(t *testing.T) {
		blob := NewBimodal(10).AppendState(nil)
		if err := NewBimodal(14).LoadState(codec.NewReader(blob)); err == nil {
			t.Fatalf("bimodal(14) accepted bimodal(10) state")
		}
	})
}

// TestStateCanonicalOnly: a table's runs decode only in the form AppendState
// writes them; every other arrangement of the same entries is an error.
func TestStateCanonicalOnly(t *testing.T) {
	// An 8-counter bimodal blob whose table holds the given runs.
	blob := func(runs uint32, body ...byte) []byte {
		b := NewBimodal(3).AppendState(nil)[:1+statsSize]
		b = codec.U32(codec.U32(b, 8), runs)
		return append(b, body...)
	}
	good := blob(2, 1, 2, 3, 0, 1, 1, 2) // counters 3 and 0 at 1-2, 2 at 4
	p := NewBimodal(3)
	if err := p.LoadState(codec.NewReader(good)); err != nil || !bytes.Equal(p.AppendState(nil), good) {
		t.Fatalf("canonical blob: %v", err)
	}
	for name, b := range map[string][]byte{
		"adjacent runs":      blob(2, 1, 1, 3, 0, 1, 0),
		"default in run":     blob(1, 0, 2, 3, 1),
		"empty run":          blob(1, 2, 0),
		"run overruns table": blob(1, 6, 3, 3, 3, 3),
		"gap past table":     blob(1, 9, 1, 3),
		"too many runs":      blob(5, 0, 1, 3, 1, 1, 3, 1, 1, 3, 1, 1, 3, 1, 1, 3),
		"long varint gap":    blob(1, 0x81, 0x00, 1, 3),
		"run count short":    blob(2, 1, 1, 3),
	} {
		if err := NewBimodal(3).LoadState(codec.NewReader(b)); err == nil {
			t.Errorf("%s: LoadState accepted a non-canonical table", name)
		}
	}
}

// fuzzConfig is a small TAGE: 64 base counters and 16 entries per tagged
// table, so fuzz inputs stay near the 1.4 KB of dense registers, outcome
// ring and loop table. The run, loop and corrector paths are the same as at
// the default sizes.
func fuzzConfig() TAGEConfig {
	return TAGEConfig{LogBase: 6, LogTagged: 4, MinHist: 4, MaxHist: 64, WithLoop: true, WithSC: true}
}

// FuzzPredictorLoadState: arbitrary bytes either fail LoadState (or leave
// trailing bytes) or load a state that re-encodes to exactly those bytes and
// then predicts branches without panicking. One predictor is reused across
// inputs, which keeps executions cheap and checks that a successful
// LoadState replaces every bit of the previous state. The committed corpus
// holds fresh and trained fuzzConfig states and one whose run overruns its
// table.
func FuzzPredictorLoadState(f *testing.F) {
	p := NewTAGE(fuzzConfig())
	f.Fuzz(func(t *testing.T, b []byte) {
		r := codec.NewReader(b)
		if p.LoadState(r) != nil || r.Expect(0) != nil {
			return
		}
		if re := p.AppendState(nil); !bytes.Equal(re, b) {
			t.Fatalf("loaded state re-encodes to %d different bytes (input %d)", len(re), len(b))
		}
		g := lcg{s: 1}
		for i := 0; i < 500; i++ {
			p.PredictAndTrain(g.branch())
		}
	})
}
