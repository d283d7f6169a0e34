package sim

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"phelps/internal/bpred"
	"phelps/internal/cache"
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
// Results are bit-identical. Every run measures an artifact's decoded state
// blobs, so cache off against cold pins that storing changes nothing and
// that a run-scoped pool measures as the cache's pool does, and warm
// against cold pins the artifact codecs through disk.
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

// TestCkptCacheProfileReuse: the profile layer is exact. On one cache, a
// run at seed A profiles the workload; a run at seed B and a run of a
// perfBP-kind config (another predictor, so another artifact) find the
// profile in memory and skip the profile pass, and each Result equals the
// same run on a fresh cache. Two seeds run concurrently on one cache equal
// their serial runs.
func TestCkptCacheProfileReuse(t *testing.T) {
	spec, base := dlSpec(), DefaultConfig()
	perf := mustConfig(CfgPerfect, spec.Epoch)
	if perf.Predictor == base.Predictor {
		t.Fatalf("%s shares the base predictor kind", CfgPerfect)
	}
	runs := []struct {
		cfg  Config
		seed uint64
	}{{base, 3}, {base, 4}, {perf, 3}}
	c := NewCkptCache(t.TempDir())
	for i, r := range runs {
		got := mustSampled(t, spec, r.cfg, SampleConfig{Ckpts: c, Seed: r.seed})
		want := mustSampled(t, spec, r.cfg, SampleConfig{Ckpts: NewCkptCache(t.TempDir()), Seed: r.seed})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("run %d (seed %d, %s predictor) on a shared profile diverged from a fresh cache:\nfresh  %+v\nshared %+v",
				i, r.seed, makePredictor(r.cfg.Predictor).Name(), want, got)
		}
	}
	if h, m, s := c.ProfileHits(), c.ProfileMisses(), c.Stores(); h != 2 || m != 1 || s != 3 {
		t.Errorf("profile hits=%d misses=%d, artifact stores=%d, want 2/1/3", h, m, s)
	}

	t.Run("concurrent", func(t *testing.T) {
		seeds := []uint64{5, 6}
		shared := NewCkptCache(t.TempDir())
		got := make([]Result, len(seeds))
		errs := make([]error, len(seeds))
		var wg sync.WaitGroup
		for i, seed := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = SampledRun(spec, base, SampleConfig{Ckpts: shared, Seed: seed})
			}()
		}
		wg.Wait()
		for i, seed := range seeds {
			if errs[i] != nil {
				t.Fatalf("seed %d: %v", seed, errs[i])
			}
			if want := mustSampled(t, spec, base, SampleConfig{Seed: seed}); !reflect.DeepEqual(want, got[i]) {
				t.Errorf("seed %d run concurrently on one cache diverged from a serial run", seed)
			}
		}
		if h, m := shared.ProfileHits(), shared.ProfileMisses(); h+m != 2 {
			t.Errorf("profile hits=%d misses=%d, want one lookup per run", h, m)
		}
	})
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
		// A schema-1 file (dense hierarchy state) left by an older binary.
		"schema-1": func() []byte {
			b := append([]byte(nil), orig[:len(orig)-8]...)
			copy(b[4:8], codec.U32(nil, 1))
			return codec.Seal(b, 0)
		}(),
		// A schema-3 file (dense predictor state) left by an older binary.
		"schema-3": schema3Artifact(t, spec, cfg, orig),
		// A validly sealed artifact under the right key whose point count
		// (2^31, under its claimed 2^32-1 intervals) far exceeds the bytes
		// present: sizing the point slice from it would kill the process.
		"huge-point-count": func() []byte {
			b := append([]byte(nil), orig[:4+4+8*len(CkptKey{}.fields())]...)
			b = codec.Bool(b, false)
			b = codec.U64(b, 1)
			b = codec.U64(b, 1)
			b = codec.U32(b, math.MaxUint32)
			b = codec.Bool(b, false)
			b = codec.U32(b, 1<<31)
			return codec.Seal(b, 0)
		}(),
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

// denseTAGEBytes is the length of a default TAGE's predictor blob through
// PSC1 schema 3, which wrote every table entry.
const denseTAGEBytes = 75_092

// schema3Artifact rewrites a TAGE artifact as PSC1 schema 3 wrote it: each
// point's predictor blob dense, every table entry written (the constructor
// value where no run covers it) and the two corrector tables under one
// count.
func schema3Artifact(t *testing.T, spec Spec, cfg Config, blob []byte) []byte {
	t.Helper()
	key := ckptKeyFor(HashWorkload(spec.Build()), cfg, SampleConfig{}.withDefaults(), maxProfileInsts)
	art, err := decodeArtifact(blob, key)
	if err != nil {
		t.Fatal(err)
	}
	points := slices.Clone(art.points)
	for i := range points {
		r := codec.NewReader(points[i].pred)
		b := append([]byte(nil), r.Bytes(1+16)...) // kind, stats
		entries := func(width int, fresh byte) []byte {
			tab := bytes.Repeat([]byte{fresh}, width*int(r.U32()))
			end := 0
			for runs := r.U32(); runs > 0 && r.Err() == nil; runs-- {
				start := end + int(r.Uvarint())
				end = start + int(r.Uvarint())
				copy(tab[width*start:], r.Bytes(width*(end-start)))
			}
			return tab
		}
		table := func(width int, fresh byte) {
			tab := entries(width, fresh)
			b = append(codec.U32(b, uint32(len(tab)/width)), tab...)
		}
		table(1, 1) // base counters
		for range 6 {
			table(4, 0) // tagged entries
			b = append(b, r.Bytes(3*8)...)
		}
		b = append(b, r.Bytes(640+4+1+8+1)...) // outcome ring, registers, loop flag
		nl := r.U32()
		b = append(codec.U32(b, nl), r.Bytes(8*int(nl))...)
		b = append(b, r.Bytes(1)...) // corrector flag
		bias, hist := entries(1, 0), entries(1, 0)
		b = append(append(codec.U32(b, uint32(len(bias))), bias...), hist...)
		if err := r.Expect(0); err != nil || len(b) != denseTAGEBytes {
			t.Fatalf("point %d: expanding predictor blob: %v, %d dense bytes", i, err, len(b))
		}
		points[i].pred = b
	}
	dense := *art
	dense.points = points
	b := appendArtifact(nil, key, &dense)
	b = b[:len(b)-8]
	copy(b[4:8], codec.U32(nil, 3))
	return codec.Seal(b, 0)
}

// TestCkptPredictorBlobSize: a predictor blob carries only trained table
// entries. A fresh TAGE's blob is its dense registers, outcome ring and loop
// table, and every point of the eight quick GAP artifacts at seed 7 stays
// within a tenth of the dense blob of PSC1 schema 3.
func TestCkptPredictorBlobSize(t *testing.T) {
	if n := len(stateBlob(bpred.NewTAGE(bpred.DefaultTAGEConfig()))); n != 1404 {
		t.Errorf("fresh TAGE blob is %d bytes, want 1404", n)
	}
	dir := t.TempDir()
	cfg, sc := DefaultConfig(), SampleConfig{Seed: 7}
	for _, spec := range GapSpecs(true) {
		mustSampled(t, spec, cfg, SampleConfig{Seed: sc.Seed, Ckpts: NewCkptCache(dir)})
		key := ckptKeyFor(HashWorkload(spec.Build()), cfg, sc.withDefaults(), maxProfileInsts)
		blob, err := os.ReadFile(filepath.Join(dir, key.fileName()))
		if err != nil {
			t.Fatal(err)
		}
		art, err := decodeArtifact(blob, key)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, p := range art.points {
			if len(p.pred) > denseTAGEBytes/10 {
				t.Errorf("%s interval %d: predictor blob %d bytes, want at most %d", spec.Name, p.interval, len(p.pred), denseTAGEBytes/10)
			}
		}
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

// TestCkptCacheFullRunMarker: workloads below minIntervals cache a full-run
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

// TestCheckpointPassQuiescesInPlace pins the checkpoint pass's snapshot,
// which quiesces the live warming hierarchy and zeroes its stats in place.
// Every hierarchy blob a cold run stores must already be quiesced with
// zeroed stats: loaded into a throwaway hierarchy that is then quiesced and
// zeroed in place, it must re-encode to the same bytes. And warming that
// continues after an in-place quiesce, from a state with misses outstanding
// and nonzero counts, must leave the same state as a twin pair, warmed by
// the same stream, that was never quiesced.
func TestCheckpointPassQuiescesInPlace(t *testing.T) {
	spec, cfg := dlSpec(), DefaultConfig()
	dir := t.TempDir()
	mustSampled(t, spec, cfg, SampleConfig{Ckpts: NewCkptCache(dir)})
	blob, err := os.ReadFile(ckptFiles(t, dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	key := ckptKeyFor(HashWorkload(spec.Build()), cfg, SampleConfig{}.withDefaults(), maxProfileInsts)
	art, err := decodeArtifact(blob, key)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range art.points {
		h := cache.New(cfg.Cache)
		if err := h.LoadState(codec.NewReader(p.hier)); err != nil {
			t.Fatal(err)
		}
		h.Quiesce()
		h.ResetStats()
		if !bytes.Equal(h.AppendState(nil), p.hier) {
			t.Errorf("SimPoint %d: stored hierarchy state is not quiesced with zeroed stats", p.interval)
		}
	}

	// warm drives a predictor and hierarchy the way the checkpoint pass
	// does, on a pseudo-clock too slow for DRAM misses to drain.
	warm := func(p bpred.Predictor, h *cache.Hierarchy, seed, clk uint64, n int) {
		for i := 0; i < n; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			v := seed >> 16
			pc := 0x1000 + v&0xff*4
			switch v >> 40 % 4 {
			case 0:
				p.PredictAndTrain(pc, v>>12&1 == 1)
			case 1:
				h.Store(v&0xffffff, clk)
			case 2:
				h.FetchInst(pc, clk)
			default:
				h.Load(pc, v&0xfffffff, clk)
			}
			clk += 4
		}
	}
	same := func(p, q bpred.Predictor, h, g *cache.Hierarchy) bool {
		return bytes.Equal(p.AppendState(nil), q.AppendState(nil)) &&
			bytes.Equal(h.AppendState(nil), g.AppendState(nil)) && h.Stats == g.Stats
	}
	pred, hier := makePredictor(cfg.Predictor), cache.New(cfg.Cache)
	twinPred, twin := makePredictor(cfg.Predictor), cache.New(cfg.Cache)
	warm(pred, hier, 1, 0, 20_000)
	warm(twinPred, twin, 1, 0, 20_000)
	if !same(pred, twinPred, hier, twin) {
		t.Fatal("twin pairs warmed by one stream differ")
	}
	hier.Quiesce()
	if bytes.Equal(hier.AppendState(nil), twin.AppendState(nil)) || hier.Stats == (cache.Stats{}) {
		t.Fatalf("warming left no outstanding misses or no counts: %+v", hier.Stats)
	}
	hier.ResetStats()
	warm(pred, hier, 2, 80_000, 20_000)
	warm(twinPred, twin, 2, 80_000, 20_000)
	for _, h := range []*cache.Hierarchy{hier, twin} {
		h.Quiesce()
		h.ResetStats()
	}
	if !same(pred, twinPred, hier, twin) {
		t.Errorf("warming after an in-place quiesce diverged from a twin never quiesced")
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
	key := ckptKeyFor(HashWorkload(spec.Build()), cfg, sc, maxProfileInsts)
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
// header, point records, checkpoint section and FNV-1a trailer — by length
// and FNV-1a-64 sum, for a fixed hand-built artifact and a full-run marker.
// The sums were recorded at schema 4 (sparse predictor blobs). The point
// blobs here are opaque bytes, so schemas 3 and 4 differ only in the schema
// word, as schemas 1 and 2 did; schema 3's eight-word key made each artifact
// exactly 16 bytes shorter than at schema 2, whose key carried two more
// words.
func TestCkptArtifactFormatPinned(t *testing.T) {
	w := prog.PredictableLoop(200)
	e := emu.New(w.Prog, w.Mem)
	e.FastForward(50, nil)
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	key := CkptKey{1, 2, 3, 4, 5, 6, 7, 8}
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
		{"points", art, 437, 0xe219d25970e79a65},
		{"full-run", &ckptArtifact{fullRun: true, totalInsts: 77, intervals: 2}, 102, 0x17f005ec4ef1457f},
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

// fuzzArtifactKey is the key the FuzzDecodeArtifact corpus is encoded under.
var fuzzArtifactKey = CkptKey{1, 2, 3, 4, 5, 6, 7, 8}

// FuzzDecodeArtifact: the fuzzed bytes are an artifact body, sealed before
// decoding so inputs get past the checksum to the parser. Any body either
// fails to decode or decodes to an artifact that re-encodes to exactly the
// sealed bytes. The committed corpus holds a full-run marker, a one-point
// artifact without memory pages, and a two-point artifact whose checkpoints
// share one page and differ in another. A seed that fails to decode passes
// the target silently, so each must decode: a corpus left under an older
// key or schema would test nothing.
func FuzzDecodeArtifact(f *testing.F) {
	seeds, err := filepath.Glob("testdata/fuzz/FuzzDecodeArtifact/*")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no committed corpus (err=%v)", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		lit, _ := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
		body, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			f.Fatalf("%s: unreadable seed: %v", path, err)
		}
		if _, err := decodeArtifact(codec.Seal([]byte(body), 0), fuzzArtifactKey); err != nil {
			f.Errorf("%s: seed does not decode: %v", path, err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		blob := codec.Seal(append([]byte(nil), body...), 0)
		art, err := decodeArtifact(blob, fuzzArtifactKey)
		if err != nil {
			return
		}
		if re := appendArtifact(nil, fuzzArtifactKey, art); !bytes.Equal(re, blob) {
			t.Fatalf("decoded artifact re-encodes to %d different bytes (input %d)", len(re), len(blob))
		}
	})
}
