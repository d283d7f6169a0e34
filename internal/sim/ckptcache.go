package sim

// Persistent checkpoint cache for sampled simulation (see DESIGN.md ·
// Parallel sampled execution + checkpoint cache). A sampled run's functional
// work — the BBV profile pass and the warming/checkpoint pass — is
// deterministic per (workload, sample configuration, predictor and cache
// geometry), so its product can be computed once per workload ever and
// reused across runs, matrix sweeps, phelpsd jobs, and daemon restarts. The
// cached artifact is everything the measurement phase needs: the SimPoint
// list with weights, one architectural checkpoint per point (emu
// page-deduped encoding), and the functionally warmed predictor and
// hierarchy state per point (bpred/cache AppendState blobs).
//
// Every sampled run measures an artifact, as built or as loaded: each point
// decodes its state blobs into a pooled predictor and hierarchy pair, and
// resumes its checkpoint. A cold run measures the artifact it built and
// stores; a cache-off run builds one the same way and stores nothing, with
// a pool of its own. Cache-off, cold and warm results are bit-identical
// because every codec under the artifact is exact — a decoded checkpoint
// set resumes to the same state and a decoded blob equals the one encoded
// (see their round-trip tests) — and TestCkptCacheColdWarm holds cold,
// warm-from-disk and cache-off results equal.
//
// Two memory-only layers sit beside the artifacts: each workload's verified
// profile pass, which does not depend on the seed, K, warmup, predictor or
// cache geometry, so a cold artifact of a profiled workload skips straight
// to the checkpoint pass; and the predictor and hierarchy pairs that
// checkpoint passes warm and points decode into, reused across runs.
//
// Robustness: files are written atomically (temp + rename) and carry a
// magic, a schema version, the full key, and a codec.Seal FNV-1a trailer.
// Truncation, corruption, version skew, or a filename-hash collision all
// decode to a cache miss (counted in Errors), never a crash and never a
// wrong artifact.

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"phelps/internal/bpred"
	"phelps/internal/cache"
	"phelps/internal/codec"
	"phelps/internal/emu"
	"phelps/internal/fsio"
)

// ckptSchema versions the artifact file format; bump on any layout change
// and old files become misses. Schema 2 carries live-lines-only hierarchy
// state blobs (see internal/cache/state.go); schema 3 drops two sampling
// knobs from the key, leaving eight words; schema 4 carries predictor blobs
// that write only trained table entries (see internal/bpred/state.go).
const ckptSchema = 4

// ckptPointBytes is the smallest encoded point record: interval, weight,
// warm and the two state-blob lengths.
const ckptPointBytes = 4 + 8 + 8 + 4 + 4

// ckptHeaderBytes is the encoded header: magic, schema, the key words, the
// full-run flag, total, interval length, interval count and halted flag.
const ckptHeaderBytes = codec.HeaderSize + 8*8 + 1 + 8 + 8 + 4 + 1

// ckptArtifactMagic identifies artifact files ("PSC1").
const ckptArtifactMagic uint32 = 0x50534331

// CkptKey identifies one checkpoint-cache artifact: the workload's content
// hash plus every knob the functional passes depend on. Anything that
// changes profiling, point selection, or warmed state must be here; knobs
// that only affect measurement (Mode, Checks, Lockstep, MaxCycles) must not
// be, so base/phelps/runahead cells of one workload share one artifact.
type CkptKey struct {
	Workload    uint64 // HashWorkload of the built workload
	IntervalLen uint64 // SampleConfig.IntervalLen (0 = auto-sized)
	K           uint64
	Warmup      uint64 // SampleConfig.WarmupInsts (0 = auto)
	Seed        uint64
	ProfileCap  uint64 // effective profile bound (maxProfileInsts ∧ MaxInsts)
	Predictor   uint64 // PredictorKind — warmed predictor state is kind-specific
	CacheCfg    uint64 // hashCacheConfig — warmed hierarchy state is geometry-specific
}

// ckptKeyFor derives the artifact key. sc must already have defaults applied
// so explicit-default and zero-value configs share artifacts.
func ckptKeyFor(workloadHash uint64, cfg Config, sc SampleConfig, profileCap uint64) CkptKey {
	return CkptKey{
		Workload:    workloadHash,
		IntervalLen: sc.IntervalLen,
		K:           uint64(sc.K),
		Warmup:      sc.WarmupInsts,
		Seed:        sc.Seed,
		ProfileCap:  profileCap,
		Predictor:   uint64(cfg.Predictor),
		CacheCfg:    hashCacheConfig(cfg.Cache),
	}
}

// profileKey is the part of a CkptKey the profile pass depends on: the
// workload, the interval length asked for and the profile bound. The seed,
// K, warmup, predictor and cache geometry change only the checkpoint pass.
type profileKey struct{ workload, intervalLen, profileCap uint64 }

func (k CkptKey) profileKey() profileKey {
	return profileKey{k.Workload, k.IntervalLen, k.ProfileCap}
}

func (k CkptKey) fields() [8]uint64 {
	return [8]uint64{k.Workload, k.IntervalLen, k.K, k.Warmup, k.Seed,
		k.ProfileCap, k.Predictor, k.CacheCfg}
}

// fileName hashes the key into the artifact's on-disk name. The full key is
// also stored inside the file and compared on load, so a filename-hash
// collision degrades to a miss, not a wrong artifact.
func (k CkptKey) fileName() string {
	h := codec.FNVOffset64
	for _, v := range k.fields() {
		h = fnvMix(h, v)
	}
	return fmt.Sprintf("%016x.ckpt", h)
}

// ckptPoint is one SimPoint's share of an artifact.
type ckptPoint struct {
	interval int
	weight   float64
	warm     uint64 // cycle-accurate warmup instructions before the interval
	pred     []byte // bpred state blob of the functionally warmed predictor
	hier     []byte // cache Hierarchy state blob (quiesced, stats zeroed)
}

// loadInto decodes the point's state blobs into the measuring machine's
// predictor and hierarchy, built from the key's kind and geometry.
func (p *ckptPoint) loadInto(pred bpred.Predictor, hier *cache.Hierarchy) error {
	rp, rh := codec.NewReader(p.pred), codec.NewReader(p.hier)
	if err := pred.LoadState(rp); err != nil || rp.Expect(0) != nil {
		return fmt.Errorf("cached predictor state: %v", cmp.Or(err, rp.Err()))
	}
	if err := hier.LoadState(rh); err != nil || rh.Expect(0) != nil {
		return fmt.Errorf("cached hierarchy state: %v", cmp.Or(err, rh.Err()))
	}
	return nil
}

// stateBlob encodes a predictor's or hierarchy's state into a buffer of
// exactly its size, so a blob an artifact keeps carries no slack capacity.
func stateBlob(s interface {
	AppendState([]byte) []byte
	StateSize() int
}) []byte {
	return s.AppendState(make([]byte, 0, s.StateSize()))
}

// ckptArtifact is a checkpoint-cache entry, as built or as decoded: the full
// product of the profiling and checkpointing passes. Immutable once built —
// concurrent sampled runs share one artifact, resuming its checkpoints
// (copy-on-write) and decoding its state blobs into private structures.
type ckptArtifact struct {
	fullRun     bool // workload below minIntervals: warm runs go straight to a full RunCtx
	totalInsts  uint64
	intervalLen uint64
	intervals   int
	halted      bool
	points      []ckptPoint
	cks         []*emu.Checkpoint // one per point, in points order
}

// ckptProfile is one workload's verified profile pass: the merged interval
// BBVs, the resolved interval length, the instruction total and whether the
// pass reached HALT. Read-only once built: simpoint.Pick only reads the
// BBVs, so concurrent runs share one profile.
type ckptProfile struct {
	intervals   []map[uint64]float64
	intervalLen uint64
	total       uint64
	halted      bool
}

// appendArtifact serializes an artifact (with its key and a trailing
// checksum) for disk, growing b once to the encoded size.
func appendArtifact(b []byte, key CkptKey, art *ckptArtifact) []byte {
	n := ckptHeaderBytes + 8
	if !art.fullRun {
		n += 4 + emu.CheckpointsSize(art.cks)
		for i := range art.points {
			n += ckptPointBytes + len(art.points[i].pred) + len(art.points[i].hier)
		}
	}
	b = slices.Grow(b, n)
	start := len(b)
	b = codec.Header(b, ckptArtifactMagic, ckptSchema)
	for _, v := range key.fields() {
		b = codec.U64(b, v)
	}
	b = codec.Bool(b, art.fullRun)
	b = codec.U64(b, art.totalInsts)
	b = codec.U64(b, art.intervalLen)
	b = codec.U32(b, uint32(art.intervals))
	b = codec.Bool(b, art.halted)
	if !art.fullRun {
		b = codec.U32(b, uint32(len(art.points)))
		for i := range art.points {
			p := &art.points[i]
			b = codec.U32(b, uint32(p.interval))
			b = codec.F64(b, p.weight)
			b = codec.U64(b, p.warm)
			b = codec.U32(b, uint32(len(p.pred)))
			b = append(b, p.pred...)
			b = codec.U32(b, uint32(len(p.hier)))
			b = append(b, p.hier...)
		}
		b = emu.EncodeCheckpoints(b, art.cks)
	}
	return codec.Seal(b, start)
}

// decodeArtifact parses and validates an artifact blob: magic, schema,
// checksum, embedded key (must equal want), and structural bounds. Any
// failure is an error — the cache treats it as a miss.
func decodeArtifact(b []byte, want CkptKey) (*ckptArtifact, error) {
	body, err := codec.Unseal(b)
	if err != nil {
		return nil, fmt.Errorf("sim: ckpt artifact: %w", err)
	}
	r := codec.NewReader(body)
	if err := r.Header(ckptArtifactMagic, ckptSchema); err != nil {
		return nil, fmt.Errorf("sim: ckpt artifact: %w", err)
	}
	var got CkptKey
	fields := []*uint64{&got.Workload, &got.IntervalLen, &got.K, &got.Warmup, &got.Seed,
		&got.ProfileCap, &got.Predictor, &got.CacheCfg}
	for _, p := range fields {
		*p = r.U64()
	}
	if r.Err() == nil && got != want {
		return nil, fmt.Errorf("sim: ckpt artifact key mismatch (filename-hash collision)")
	}
	art := &ckptArtifact{}
	art.fullRun = r.Bool()
	art.totalInsts = r.U64()
	art.intervalLen = r.U64()
	art.intervals = int(r.U32())
	art.halted = r.Bool()
	if !art.fullRun {
		n := int(r.U32())
		if r.Err() != nil {
			return nil, r.Err()
		}
		// Bound the count by the bytes left before it sizes an allocation.
		if n <= 0 || n > art.intervals+1 || n > r.Len()/ckptPointBytes {
			return nil, fmt.Errorf("sim: ckpt artifact has %d points for %d intervals in %d bytes", n, art.intervals, r.Len())
		}
		art.points = make([]ckptPoint, n)
		for i := range art.points {
			p := &art.points[i]
			p.interval = int(r.U32())
			p.weight = r.F64()
			p.warm = r.U64()
			p.pred = append([]byte(nil), r.Bytes(int(r.U32()))...)
			p.hier = append([]byte(nil), r.Bytes(int(r.U32()))...)
			if r.Err() == nil && (p.interval < 0 || p.interval >= art.intervals) {
				return nil, fmt.Errorf("sim: ckpt artifact point %d at interval %d of %d", i, p.interval, art.intervals)
			}
		}
		cks, err := emu.DecodeCheckpoints(r)
		if err != nil {
			return nil, err
		}
		if len(cks) != n {
			return nil, fmt.Errorf("sim: ckpt artifact has %d checkpoints for %d points", len(cks), n)
		}
		art.cks = cks
	}
	if err := r.Expect(0); err != nil {
		return nil, err
	}
	return art, nil
}

// ckptMemEntries bounds the in-memory artifact layer (an artifact costs
// about its encoded size, 0.18–0.77 MB for a quick GAP workload: per point,
// a 1.4–5.7 KB predictor blob of trained entries and 13–80 KB of
// live-lines-only hierarchy state, plus the checkpoint pages).
const ckptMemEntries = 8

// ckptProfileEntries bounds the in-memory profile layer. A profile holds
// 3–300 KB of BBV maps at the quick sizes and 9–900 KB at full size (gcc
// is the largest); the bound covers all 23 workloads at both sizes, about
// 3.5 MB, so a daemon profiles each once.
const ckptProfileEntries = 64

// fifo is a map bounded to n entries that evicts the oldest insert first.
// CkptCache guards its fifos with its mutex.
type fifo[K comparable, V any] struct {
	n     int
	m     map[K]V
	order []K
}

func newFIFO[K comparable, V any](n int) fifo[K, V] {
	return fifo[K, V]{n: n, m: make(map[K]V)}
}

func (f *fifo[K, V]) put(k K, v V) {
	if _, ok := f.m[k]; !ok {
		for len(f.order) >= f.n {
			delete(f.m, f.order[0])
			f.order = f.order[1:]
		}
		f.order = append(f.order, k)
	}
	f.m[k] = v
}

// warmKey identifies a pair's build: warmed state is specific to the
// predictor kind and the whole cache configuration (the measuring
// hierarchy's latencies too, not only its geometry).
type warmKey struct {
	pred  PredictorKind
	cache cache.Config
}

// warmState is a predictor and hierarchy pair that a checkpoint pass warms
// or that a point decodes into (LoadState overwrites all).
type warmState struct {
	pred bpred.Predictor
	hier *cache.Hierarchy
}

// warmPool holds the pairs built for one warmKey, with the state blobs of a
// fresh pair: shared by every run of that build on a CkptCache, or by one
// cache-off run's checkpoint pass and its measuring goroutines.
type warmPool struct {
	sync.Pool
	fresh ckptPoint
}

// newWarmPool returns a pool of pairs of one predictor kind and cache
// configuration, holding one fresh pair.
func newWarmPool(kind PredictorKind, cc cache.Config) *warmPool {
	build := func() *warmState { return &warmState{makePredictor(kind), cache.New(cc)} }
	ws := build()
	p := &warmPool{fresh: ckptPoint{pred: stateBlob(ws.pred), hier: stateBlob(ws.hier)}}
	p.New = func() any { return build() }
	p.Put(ws)
	return p
}

// getFresh takes a pair from the pool and loads a fresh pair's state into
// it, so a checkpoint pass warms it exactly as it would a new build.
func (p *warmPool) getFresh() (*warmState, error) {
	ws := p.Get().(*warmState)
	if err := p.fresh.loadInto(ws.pred, ws.hier); err != nil {
		return nil, err
	}
	return ws, nil
}

// CkptCache is a persistent, process-shared checkpoint cache rooted at a
// directory, with three in-memory layers: recent artifacts, recent
// workload profiles, and pools of predictor and hierarchy pairs. Safe for
// concurrent use; phelpsd shares one across its pool workers and the cells
// of its sampled jobs (MatrixOptions.Sample).
type CkptCache struct {
	dir string
	fs  fsio.FS

	mu       sync.Mutex
	mem      fifo[CkptKey, *ckptArtifact]
	profiles fifo[profileKey, *ckptProfile]
	warm     map[warmKey]*warmPool

	hits, misses, stores, errs atomic.Uint64
	profileHits, profileMisses atomic.Uint64
}

// NewCkptCache returns a cache rooted at dir (created on first store).
func NewCkptCache(dir string) *CkptCache {
	return NewCkptCacheFS(dir, fsio.OS)
}

// NewCkptCacheFS is NewCkptCache over an explicit filesystem; fault-injection
// tests pass an fsio.FaultFS to prove every disk failure degrades to a
// counted miss or skipped store, never a crash or a wrong artifact.
func NewCkptCacheFS(dir string, fs fsio.FS) *CkptCache {
	if fs == nil {
		fs = fsio.OS
	}
	return &CkptCache{dir: dir, fs: fs,
		mem:      newFIFO[CkptKey, *ckptArtifact](ckptMemEntries),
		profiles: newFIFO[profileKey, *ckptProfile](ckptProfileEntries),
		warm:     make(map[warmKey]*warmPool)}
}

// Hits counts artifact loads answered from memory or disk.
func (c *CkptCache) Hits() uint64 { return c.hits.Load() }

// Misses counts loads that found no usable artifact.
func (c *CkptCache) Misses() uint64 { return c.misses.Load() }

// Stores counts artifacts written (one per cold profiling pass).
func (c *CkptCache) Stores() uint64 { return c.stores.Load() }

// Errors counts I/O and decode failures (each also degraded to a miss or a
// skipped store).
func (c *CkptCache) Errors() uint64 { return c.errs.Load() }

// ProfileHits counts artifact misses whose workload profile was in memory,
// so the run skipped the profile pass.
func (c *CkptCache) ProfileHits() uint64 { return c.profileHits.Load() }

// ProfileMisses counts artifact misses that ran the profile pass.
func (c *CkptCache) ProfileMisses() uint64 { return c.profileMisses.Load() }

func (c *CkptCache) remember(key CkptKey, art *ckptArtifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem.put(key, art)
}

// profile returns the cached profile for key, or nil, counting a hit or a
// miss.
func (c *CkptCache) profile(key profileKey) *ckptProfile {
	c.mu.Lock()
	p := c.profiles.m[key]
	c.mu.Unlock()
	if p == nil {
		c.profileMisses.Add(1)
	} else {
		c.profileHits.Add(1)
	}
	return p
}

// rememberProfile keeps a verified profile in memory only: it costs one
// functional pass to rebuild, and the workload hash in its key already
// changes with the program and its input.
func (c *CkptCache) rememberProfile(key profileKey, p *ckptProfile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.profiles.put(key, p)
}

// warmPool returns the pool of pairs built for one predictor kind and cache
// configuration. A nil cache, a cache-off run, gets a new pool that lives as
// long as the run.
func (c *CkptCache) warmPool(kind PredictorKind, cc cache.Config) *warmPool {
	if c == nil {
		return newWarmPool(kind, cc)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := warmKey{kind, cc}
	p := c.warm[k]
	if p == nil {
		p = newWarmPool(kind, cc)
		c.warm[k] = p
	}
	return p
}

// Load returns the artifact for key, or nil on miss. The only non-nil error
// is context cancellation (checkpoint cache I/O honors ctx); corruption,
// truncation, version skew, and key mismatches count as Errors and return a
// plain miss so the caller re-profiles and overwrites the bad file.
func (c *CkptCache) Load(ctx context.Context, key CkptKey) (*ckptArtifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	c.mu.Lock()
	art, ok := c.mem.m[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return art, nil
	}
	blob, err := c.fs.ReadFile(filepath.Join(c.dir, key.fileName()))
	if err != nil {
		if !os.IsNotExist(err) {
			c.errs.Add(1)
		}
		c.misses.Add(1)
		return nil, nil
	}
	// The decode of a multi-MB artifact sits between two cancellation
	// points; a canceled DELETE never waits on cache I/O beyond one decode.
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	art, derr := decodeArtifact(blob, key)
	if derr != nil {
		c.errs.Add(1)
		c.misses.Add(1)
		return nil, nil
	}
	c.hits.Add(1)
	c.remember(key, art)
	return art, nil
}

// Store writes the encoded artifact atomically (fsio.WriteFileAtomic, so a
// crashed or concurrent writer never leaves a torn file) and remembers art,
// the artifact blob encodes, in memory. The write is not fsynced: an artifact is
// checksummed and recomputable, so a crash that loses it costs one profile
// pass, while an fsync per multi-MB artifact would cost every cold cell.
// Disk failures are counted and swallowed — a run that computed its
// checkpoints proceeds regardless — but context cancellation is returned.
func (c *CkptCache) Store(ctx context.Context, key CkptKey, art *ckptArtifact, blob []byte) error {
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}
	c.remember(key, art)
	err := c.fs.MkdirAll(c.dir, 0o755)
	if err == nil {
		err = fsio.WriteFileAtomic(c.fs, filepath.Join(c.dir, key.fileName()), blob, false)
	}
	if err != nil {
		c.errs.Add(1)
		return nil
	}
	c.stores.Add(1)
	return nil
}
