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
// Bit-identicality is by construction: when the cache is enabled, even a
// cold run measures from the decoded artifact (encode → decode → measure),
// so a warm run — which decodes the same bytes — cannot differ from the
// cold run that wrote them. The leaf codecs are exact (see their round-trip
// tests), so cache on or off is bit-identical too.
//
// Robustness: files are written atomically (temp + rename) and carry a
// magic, a schema version, the full key, and a codec.Seal FNV-1a trailer.
// Truncation, corruption, version skew, or a filename-hash collision all
// decode to a cache miss (counted in Errors), never a crash and never a
// wrong artifact.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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
// state blobs (see internal/cache/state.go).
const ckptSchema = 2

// ckptPointBytes is the smallest encoded point record: interval, weight,
// warm and the two state-blob lengths.
const ckptPointBytes = 4 + 8 + 8 + 4 + 4

// ckptArtifactMagic identifies artifact files ("PSC1").
const ckptArtifactMagic uint32 = 0x50534331

// CkptKey identifies one checkpoint-cache artifact: the workload's content
// hash plus every knob the functional passes depend on. Anything that
// changes profiling, point selection, or warmed state must be here; knobs
// that only affect measurement (Mode, Checks, Lockstep, MaxCycles) must not
// be, so base/phelps/runahead cells of one workload share one artifact.
type CkptKey struct {
	Workload     uint64 // HashWorkload of the built workload
	IntervalLen  uint64 // SampleConfig.IntervalLen (0 = auto-sized)
	K            uint64
	Warmup       uint64 // SampleConfig.WarmupInsts (0 = auto)
	FuncWarm     uint64
	MinIntervals uint64
	Seed         uint64
	ProfileCap   uint64 // effective profile bound (MaxProfileInsts ∧ MaxInsts)
	Predictor    uint64 // PredictorKind — warmed predictor state is kind-specific
	CacheCfg     uint64 // hashCacheConfig — warmed hierarchy state is geometry-specific
}

// ckptKeyFor derives the artifact key. sc must already have defaults applied
// so explicit-default and zero-value configs share artifacts.
func ckptKeyFor(workloadHash uint64, cfg Config, sc SampleConfig, profileCap uint64) CkptKey {
	return CkptKey{
		Workload:     workloadHash,
		IntervalLen:  sc.IntervalLen,
		K:            uint64(sc.K),
		Warmup:       sc.WarmupInsts,
		FuncWarm:     sc.FuncWarmInsts,
		MinIntervals: uint64(sc.MinIntervals),
		Seed:         sc.Seed,
		ProfileCap:   profileCap,
		Predictor:    uint64(cfg.Predictor),
		CacheCfg:     hashCacheConfig(cfg.Cache),
	}
}

func (k CkptKey) fields() [10]uint64 {
	return [10]uint64{k.Workload, k.IntervalLen, k.K, k.Warmup, k.FuncWarm,
		k.MinIntervals, k.Seed, k.ProfileCap, k.Predictor, k.CacheCfg}
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

	// Decoded prototypes of the two blobs above, built lazily on first use
	// and reused by every later measurement that hits this artifact in
	// memory. Prototypes are never mutated; measurements Clone them.
	protoOnce sync.Once
	protoPred bpred.Predictor
	protoHier *cache.Hierarchy
	protoErr  error
}

// protos returns the point's decoded predictor and hierarchy prototypes,
// decoding the state blobs at most once per artifact. Deep-cloning a
// prototype is several times cheaper than a field-by-field codec decode,
// which matters because every warm run re-derives private per-point mutable
// state from the shared immutable artifact. cfg's predictor kind and cache
// geometry always match the blobs — both are part of CkptKey.
func (p *ckptPoint) protos(cfg Config) (bpred.Predictor, *cache.Hierarchy, error) {
	p.protoOnce.Do(func() {
		pred := makePredictor(cfg.Predictor)
		r := codec.NewReader(p.pred)
		if err := pred.LoadState(r); err != nil {
			p.protoErr = fmt.Errorf("cached predictor state: %v", err)
			return
		}
		if err := r.Expect(0); err != nil {
			p.protoErr = fmt.Errorf("cached predictor state: trailing bytes")
			return
		}
		hier := cache.New(cfg.Cache)
		r = codec.NewReader(p.hier)
		if err := hier.LoadState(r); err != nil {
			p.protoErr = fmt.Errorf("cached hierarchy state: %v", err)
			return
		}
		if err := r.Expect(0); err != nil {
			p.protoErr = fmt.Errorf("cached hierarchy state: trailing bytes")
			return
		}
		p.protoPred, p.protoHier = pred, hier
	})
	return p.protoPred, p.protoHier, p.protoErr
}

// ckptArtifact is a decoded checkpoint-cache entry: the full product of the
// profiling and checkpointing passes. Immutable once built — concurrent
// sampled runs share one artifact, resuming its checkpoints (copy-on-write)
// and decoding its state blobs into private structures.
type ckptArtifact struct {
	fullRun     bool // workload below MinIntervals: warm runs go straight to a full RunCtx
	totalInsts  uint64
	intervalLen uint64
	intervals   int
	halted      bool
	points      []ckptPoint
	cks         []*emu.Checkpoint // one per point, in points order
}

// appendArtifact serializes an artifact (with its key and a trailing
// checksum) for disk.
func appendArtifact(b []byte, key CkptKey, art *ckptArtifact) []byte {
	start := len(b)
	b = codec.U32(b, ckptArtifactMagic)
	b = codec.U32(b, ckptSchema)
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
	if m := r.U32(); m != ckptArtifactMagic {
		return nil, fmt.Errorf("sim: ckpt artifact magic %#x", m)
	}
	if v := r.U32(); v != ckptSchema {
		return nil, fmt.Errorf("sim: ckpt artifact schema %d, want %d", v, ckptSchema)
	}
	var got CkptKey
	fields := []*uint64{&got.Workload, &got.IntervalLen, &got.K, &got.Warmup, &got.FuncWarm,
		&got.MinIntervals, &got.Seed, &got.ProfileCap, &got.Predictor, &got.CacheCfg}
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

// ckptMemEntries bounds the in-memory decoded-artifact layer (a quick GAP
// workload's artifact is 0.7–1.3 MB: per point, a 75 KB predictor blob and
// 13–80 KB of live-lines-only hierarchy state, plus the checkpoint pages).
const ckptMemEntries = 8

// CkptCache is a persistent, process-shared checkpoint cache rooted at a
// directory, with a small in-memory layer of decoded artifacts on top. Safe
// for concurrent use; phelpsd shares one across its pool workers and the
// cells of its sampled jobs (MatrixOptions.Sample).
type CkptCache struct {
	dir string
	fs  fsio.FS

	mu    sync.Mutex
	mem   map[CkptKey]*ckptArtifact
	order []CkptKey // FIFO eviction order

	hits, misses, stores, errs atomic.Uint64
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
	return &CkptCache{dir: dir, fs: fs, mem: make(map[CkptKey]*ckptArtifact)}
}

// Dir returns the cache's root directory.
func (c *CkptCache) Dir() string { return c.dir }

// Hits counts artifact loads answered from memory or disk.
func (c *CkptCache) Hits() uint64 { return c.hits.Load() }

// Misses counts loads that found no usable artifact.
func (c *CkptCache) Misses() uint64 { return c.misses.Load() }

// Stores counts artifacts written (one per cold profiling pass).
func (c *CkptCache) Stores() uint64 { return c.stores.Load() }

// Errors counts I/O and decode failures (each also degraded to a miss or a
// skipped store).
func (c *CkptCache) Errors() uint64 { return c.errs.Load() }

func (c *CkptCache) remember(key CkptKey, art *ckptArtifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mem[key]; ok {
		c.mem[key] = art
		return
	}
	for len(c.order) >= ckptMemEntries {
		delete(c.mem, c.order[0])
		c.order = c.order[1:]
	}
	c.mem[key] = art
	c.order = append(c.order, key)
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
	art, ok := c.mem[key]
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
// crashed or concurrent writer never leaves a torn file) and remembers the
// decoded form in memory. The write is not fsynced: an artifact is
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
