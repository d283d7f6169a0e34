package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"phelps/internal/codec"
	"phelps/internal/emu"
	"phelps/internal/prog"
)

func dlSpec() Spec {
	return Spec{
		Name:  "dl",
		Build: func() *prog.Workload { return prog.DelinquentLoop(30_000, 50, 1) },
	}
}

// ckptFiles lists the artifact files under a cache directory.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCkptCacheColdWarm is the cache's core contract: a cold run profiles,
// checkpoints, and stores exactly one artifact; a warm run (fresh cache
// instance on the same directory, so the artifact really round-trips through
// disk) hits and skips the functional passes; and cold, warm, and cache-off
// Results are bit-identical.
func TestCkptCacheColdWarm(t *testing.T) {
	spec, cfg := dlSpec(), DefaultConfig()
	dir := t.TempDir()

	nocache := mustSampled(t, spec, cfg, SampleConfig{})

	cold := NewCkptCache(dir)
	rc := mustSampled(t, spec, cfg, SampleConfig{Ckpts: cold})
	if h, m, s := cold.Hits(), cold.Misses(), cold.Stores(); h != 0 || m != 1 || s != 1 {
		t.Fatalf("cold counters: hits=%d misses=%d stores=%d, want 0/1/1", h, m, s)
	}
	if n := len(ckptFiles(t, dir)); n != 1 {
		t.Fatalf("cold run left %d artifact files, want 1", n)
	}

	warm := NewCkptCache(dir)
	rw := mustSampled(t, spec, cfg, SampleConfig{Ckpts: warm})
	if h, m, s := warm.Hits(), warm.Misses(), warm.Stores(); h != 1 || m != 0 || s != 0 {
		t.Fatalf("warm counters: hits=%d misses=%d stores=%d, want 1/0/0", h, m, s)
	}
	// Second warm run on the same instance answers from memory.
	rw2 := mustSampled(t, spec, cfg, SampleConfig{Ckpts: warm})
	if h := warm.Hits(); h != 2 {
		t.Fatalf("in-memory warm hit not counted: hits=%d", h)
	}

	if !reflect.DeepEqual(nocache, rc) {
		t.Errorf("cold cached run diverged from cache-off run:\noff  %+v\ncold %+v", nocache, rc)
	}
	if !reflect.DeepEqual(rc, rw) || !reflect.DeepEqual(rc, rw2) {
		t.Errorf("warm run diverged from cold run:\ncold %+v\nwarm %+v", rc, rw)
	}
}

// TestCkptCacheParallelWarm: a warm, parallel run equals the cold serial one
// (the two accelerations compose), and one artifact serves concurrent runs.
func TestCkptCacheParallelWarm(t *testing.T) {
	spec, cfg := dlSpec(), DefaultConfig()
	dir := t.TempDir()
	cold := mustSampled(t, spec, cfg, SampleConfig{Ckpts: NewCkptCache(dir)})

	warm := NewCkptCache(dir)
	var wg sync.WaitGroup
	results := make([]Result, 4)
	errs := make([]error, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = SampledRun(spec, cfg, SampleConfig{Ckpts: warm, Workers: 4})
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent warm run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(cold, results[i]) {
			t.Errorf("concurrent warm run %d diverged from cold serial run", i)
		}
	}
	if s := warm.Stores(); s != 0 {
		t.Errorf("warm runs re-stored the artifact %d times", s)
	}
}

// TestCkptCacheCorruption: a truncated or bit-flipped artifact reads as a
// counted error plus a plain miss — the run re-profiles, overwrites the bad
// file, and produces the same Result.
func TestCkptCacheCorruption(t *testing.T) {
	spec, cfg := dlSpec(), DefaultConfig()
	dir := t.TempDir()
	want := mustSampled(t, spec, cfg, SampleConfig{Ckpts: NewCkptCache(dir)})
	path := ckptFiles(t, dir)[0]
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := map[string][]byte{
		"truncated": orig[:len(orig)/2],
		"empty":     {},
		"bitflip": func() []byte {
			b := append([]byte(nil), orig...)
			b[len(b)/3] ^= 0x40
			return b
		}(),
		"garbage-tail": append(append([]byte(nil), orig...), 0xde, 0xad),
	}
	for name, data := range corrupt {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			c := NewCkptCache(dir)
			got := mustSampled(t, spec, cfg, SampleConfig{Ckpts: c})
			if e, m, s := c.Errors(), c.Misses(), c.Stores(); e != 1 || m != 1 || s != 1 {
				t.Errorf("corrupt artifact counters: errors=%d misses=%d stores=%d, want 1/1/1", e, m, s)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("re-profiled run after corruption diverged")
			}
			// The bad file was overwritten with a good one.
			c2 := NewCkptCache(dir)
			if got2 := mustSampled(t, spec, cfg, SampleConfig{Ckpts: c2}); !reflect.DeepEqual(want, got2) {
				t.Errorf("warm run after corruption recovery diverged")
			} else if c2.Hits() != 1 {
				t.Errorf("recovered artifact did not hit: %d", c2.Hits())
			}
		})
	}
}

// TestCkptKeyCollisionResistance: every knob the functional passes depend on
// separates cache keys (and their file names), and runs with different knobs
// sharing one directory never poison each other.
func TestCkptKeyCollisionResistance(t *testing.T) {
	spec := dlSpec()
	base := DefaultConfig()
	baseSC := SampleConfig{}.withDefaults()
	wh := HashWorkload(spec.Build())
	mk := func(cfg Config, sc SampleConfig, cap uint64) CkptKey {
		return ckptKeyFor(wh, cfg, sc.withDefaults(), cap)
	}

	keys := map[string]CkptKey{"base": mk(base, SampleConfig{}, 1_000_000_000)}
	keys["seed"] = mk(base, SampleConfig{Seed: 7}, 1_000_000_000)
	keys["k"] = mk(base, SampleConfig{K: 9}, 1_000_000_000)
	keys["interval"] = mk(base, SampleConfig{IntervalLen: 4000}, 1_000_000_000)
	keys["warmup"] = mk(base, SampleConfig{WarmupInsts: 6000}, 1_000_000_000)
	keys["funcwarm"] = mk(base, SampleConfig{FuncWarmInsts: 50_000}, 1_000_000_000)
	keys["cap"] = mk(base, SampleConfig{}, 500_000)
	pred := base
	pred.Predictor = PredGshare
	keys["pred"] = mk(pred, SampleConfig{}, 1_000_000_000)
	small := base
	small.Cache.L3Sets /= 2
	keys["cache"] = mk(small, SampleConfig{}, 1_000_000_000)
	other := Spec{Name: "dl2", Build: func() *prog.Workload { return prog.DelinquentLoop(30_000, 50, 2) }}
	keys["workload"] = ckptKeyFor(HashWorkload(other.Build()), base, baseSC, 1_000_000_000)

	seenKey := map[CkptKey]string{}
	seenFile := map[string]string{}
	for name, k := range keys {
		if prev, dup := seenKey[k]; dup {
			t.Errorf("keys %q and %q collide: %+v", name, prev, k)
		}
		seenKey[k] = name
		if prev, dup := seenFile[k.fileName()]; dup {
			t.Errorf("file names for %q and %q collide: %s", name, prev, k.fileName())
		}
		seenFile[k.fileName()] = name
	}

	// Behavioral check: two seeds share a directory without cross-talk (the
	// second run must miss and store its own artifact, not hit seed 1's).
	dir := t.TempDir()
	c := NewCkptCache(dir)
	mustSampled(t, spec, base, SampleConfig{Ckpts: c, Seed: 1})
	mustSampled(t, spec, base, SampleConfig{Ckpts: c, Seed: 2})
	if h, m, s := c.Hits(), c.Misses(), c.Stores(); h != 0 || m != 2 || s != 2 {
		t.Errorf("per-seed artifacts not separated: hits=%d misses=%d stores=%d", h, m, s)
	}
	if n := len(ckptFiles(t, dir)); n != 2 {
		t.Errorf("expected 2 artifact files, found %d", n)
	}
}

// TestCkptCacheFullRunMarker: workloads below MinIntervals cache a full-run
// marker, so warm runs skip the profile pass and go straight to the full
// cycle-accurate run — with an identical Result and report.
func TestCkptCacheFullRunMarker(t *testing.T) {
	spec := Spec{
		Name:  "tiny",
		Build: func() *prog.Workload { return prog.PredictableLoop(1_000) },
	}
	cfg := DefaultConfig()
	dir := t.TempDir()
	cold := NewCkptCache(dir)
	rc := mustSampled(t, spec, cfg, SampleConfig{Ckpts: cold})
	if rc.Sampled == nil || !rc.Sampled.FullRun {
		t.Fatalf("tiny workload should report FullRun: %+v", rc.Sampled)
	}
	if s := cold.Stores(); s != 1 {
		t.Fatalf("full-run marker not stored: stores=%d", s)
	}
	warm := NewCkptCache(dir)
	rw := mustSampled(t, spec, cfg, SampleConfig{Ckpts: warm})
	if h := warm.Hits(); h != 1 {
		t.Fatalf("full-run marker not hit: hits=%d", h)
	}
	if !reflect.DeepEqual(rc, rw) {
		t.Errorf("warm full-run diverged:\ncold %+v\nwarm %+v", rc, rw)
	}
}

// TestCkptArtifactEncodeDecode pins the artifact codec itself: deterministic
// encoding, exact round-trip, and rejection of key mismatches.
func TestCkptArtifactEncodeDecode(t *testing.T) {
	spec, cfg := dlSpec(), DefaultConfig()
	dir := t.TempDir()
	c := NewCkptCache(dir)
	mustSampled(t, spec, cfg, SampleConfig{Ckpts: c})
	blob, err := os.ReadFile(ckptFiles(t, dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	sc := SampleConfig{}.withDefaults()
	key := ckptKeyFor(HashWorkload(spec.Build()), cfg, sc, sc.MaxProfileInsts)
	art, err := decodeArtifact(blob, key)
	if err != nil {
		t.Fatalf("decode stored artifact: %v", err)
	}
	if art.fullRun || len(art.points) == 0 || len(art.cks) != len(art.points) {
		t.Fatalf("implausible artifact: fullRun=%v points=%d cks=%d", art.fullRun, len(art.points), len(art.cks))
	}
	// Re-encoding the decoded artifact reproduces the file bytes exactly.
	if re := appendArtifact(nil, key, art); string(re) != string(blob) {
		t.Fatalf("re-encoded artifact differs from stored bytes (%d vs %d)", len(re), len(blob))
	}
	// A different key must be rejected even though the bytes are intact
	// (this is the filename-hash collision defense).
	bad := key
	bad.Seed++
	if _, err := decodeArtifact(blob, bad); err == nil {
		t.Fatal("decode accepted an artifact under the wrong key")
	}
}

// TestCkptArtifactFormatPinned pins the PSC1 artifact bytes — the key,
// header, point records, checkpoint section and FNV-1a trailer — against
// the length and FNV-1a-64 sum recorded before the artifact moved onto the
// shared codec seal, for a fixed hand-built artifact and a full-run marker.
func TestCkptArtifactFormatPinned(t *testing.T) {
	w := prog.PredictableLoop(200)
	e := emu.New(w.Prog, w.Mem)
	e.FastForward(50, nil)
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	key := CkptKey{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	art := &ckptArtifact{
		totalInsts: 1000, intervalLen: 100, intervals: 10, halted: true,
		points: []ckptPoint{{interval: 3, weight: 0.625, warm: 40, pred: []byte("pred-state"), hier: []byte("hier")}},
		cks:    []*emu.Checkpoint{ck},
	}
	for _, tc := range []struct {
		name string
		art  *ckptArtifact
		n    int
		sum  uint64
	}{
		{"points", art, 453, 0x709d95f1efe30c42},
		{"full-run", &ckptArtifact{fullRun: true, totalInsts: 77, intervals: 2}, 118, 0x20876ab97fdac900},
	} {
		blob := appendArtifact(nil, key, tc.art)
		if sum := codec.Sum64(blob); len(blob) != tc.n || sum != tc.sum {
			t.Errorf("%s artifact changed: %d bytes sum %#x, want %d bytes sum %#x", tc.name, len(blob), sum, tc.n, tc.sum)
		}
		if _, err := decodeArtifact(blob, key); err != nil {
			t.Errorf("%s artifact does not decode: %v", tc.name, err)
		}
	}
}
