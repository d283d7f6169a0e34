// Package perfmodel is the learned fast-path performance model (see
// DESIGN.md · Learned fast-path model): a small gradient-boosted
// regression-tree ensemble that predicts a cell's cycle-accurate IPC and
// MPKI from cheap features — the functional profile's load/store/branch
// statistics, the SimPoint interval-BBV phase summary, and the
// configuration's knobs encoded numerically. Scoring a (workload, config)
// cell through the model costs microseconds where cycle simulation costs
// seconds, so a design-space sweep can cycle-simulate a small anchor set,
// train, score the whole grid, and spend the remaining simulation budget
// only on the predicted Pareto frontier (sim.RunExplore wires this up).
//
// The trainer is deterministic by construction, the same discipline as
// simpoint.Pick: features are scanned in index order, split candidates in
// ascending value order with ties broken toward the earlier (feature,
// threshold), sample rows keep their caller-given order, and no code path
// iterates a map. Training twice on the same rows — in any process, under
// any GOMAXPROCS — serializes to byte-identical bytes, which the
// determinism tests assert.
//
// Serialization follows the checkpoint-cache idiom (sim.CkptCache): a
// magic, a schema version, the full model body, and a trailing whole-file
// FNV-1a checksum. Truncation, corruption, or version skew decode to an
// error, never a panic and never a silently wrong model.
package perfmodel

import (
	"fmt"
	"math"
	"sort"

	"phelps/internal/codec"
)

// modelSchema versions the serialized format; bump on any layout change and
// old blobs decode to an error.
const modelSchema = 1

// modelMagic identifies model blobs ("PPM1").
const modelMagic uint32 = 0x50504d31

// Sample is one training example: a feature vector and the cycle-accurate
// ground truth it maps to.
type Sample struct {
	X    []float64
	IPC  float64
	MPKI float64
}

// Config tunes Train. The zero value selects sensible defaults for a few
// hundred anchor cells with a few dozen features.
type Config struct {
	// Rounds is the boosting-round count per target (0 = 300).
	Rounds int
	// Depth limits each tree (0 = 3; 1 trains stumps).
	Depth int
	// LearnRate is the shrinkage applied to every tree (0 = 0.1).
	LearnRate float64
	// MinLeaf is the minimum sample count per leaf (0 = 2).
	MinLeaf int
	// Subsample is the row fraction bagged per round, in (0,1]; 0 or 1
	// trains every round on all rows. Bagging below 1 draws rows with the
	// seeded PRNG — still deterministic per Seed.
	Subsample float64
	// Seed drives the bagging PRNG (0 = 1). Unused at Subsample 1, but
	// still recorded in the serialized model.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 300
	}
	if c.Depth == 0 {
		c.Depth = 3
	}
	if c.LearnRate == 0 {
		c.LearnRate = 0.1
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 2
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// node is one regression-tree node in the flat nodes array. Leaves have
// feat -1 and carry the (learning-rate-scaled) prediction in value.
type node struct {
	feat        int32
	thresh      float64
	left, right int32
	value       float64
}

type tree struct{ nodes []node }

// eval walks the tree for one feature vector.
func (t *tree) eval(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feat < 0 {
			return n.value
		}
		if x[n.feat] <= n.thresh {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// ensemble is one boosted target: a base prediction (the training mean)
// plus shrunken tree corrections.
type ensemble struct {
	base  float64
	trees []tree
}

func (e *ensemble) predict(x []float64) float64 {
	y := e.base
	for i := range e.trees {
		y += e.trees[i].eval(x)
	}
	return y
}

// Model is a trained two-target (IPC, MPKI) performance model.
type Model struct {
	// Features are the feature names, in the exact order Predict expects
	// vector entries.
	Features []string
	cfg      Config
	ipc      ensemble
	mpki     ensemble
}

// NumFeatures returns the expected feature-vector length.
func (m *Model) NumFeatures() int { return len(m.Features) }

// Trees returns the total tree count across both targets (model-size
// reporting).
func (m *Model) Trees() int { return len(m.ipc.trees) + len(m.mpki.trees) }

// PredictIPC scores one feature vector; it panics if len(x) disagrees with
// the trained feature count (a programming error, like indexing a slice out
// of range).
func (m *Model) PredictIPC(x []float64) float64 { m.checkLen(x); return m.ipc.predict(x) }

// PredictMPKI scores one feature vector. Small negative predictions (the
// ensemble is unconstrained) are clamped to zero — MPKI is a rate.
func (m *Model) PredictMPKI(x []float64) float64 {
	m.checkLen(x)
	return math.Max(0, m.mpki.predict(x))
}

func (m *Model) checkLen(x []float64) {
	if len(x) != len(m.Features) {
		panic(fmt.Sprintf("perfmodel: feature vector has %d entries, model expects %d", len(x), len(m.Features)))
	}
}

// Train fits the two boosted ensembles on the anchor samples. Every sample
// must carry exactly len(features) entries and finite targets; violations
// are an error, not a silent skip, so a malformed anchor set cannot train a
// quietly wrong model.
func Train(samples []Sample, features []string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(samples) == 0 {
		return nil, fmt.Errorf("perfmodel: no training samples")
	}
	if len(features) == 0 {
		return nil, fmt.Errorf("perfmodel: no feature names")
	}
	for i, s := range samples {
		if len(s.X) != len(features) {
			return nil, fmt.Errorf("perfmodel: sample %d has %d features, want %d", i, len(s.X), len(features))
		}
		for j, v := range s.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("perfmodel: sample %d feature %q is not finite", i, features[j])
			}
		}
		if math.IsNaN(s.IPC) || math.IsInf(s.IPC, 0) || math.IsNaN(s.MPKI) || math.IsInf(s.MPKI, 0) {
			return nil, fmt.Errorf("perfmodel: sample %d target is not finite", i)
		}
	}
	xs := make([][]float64, len(samples))
	ipc := make([]float64, len(samples))
	mpki := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.X
		ipc[i] = s.IPC
		mpki[i] = s.MPKI
	}
	m := &Model{Features: append([]string(nil), features...), cfg: cfg}
	m.ipc = trainEnsemble(xs, ipc, cfg)
	m.mpki = trainEnsemble(xs, mpki, cfg)
	return m, nil
}

// trainEnsemble boosts squared loss: each round fits one depth-limited tree
// to the current residuals and subtracts its shrunken predictions. Leaf
// values are stored pre-scaled by the learning rate, so prediction is a
// plain sum.
func trainEnsemble(xs [][]float64, ys []float64, cfg Config) ensemble {
	e := ensemble{}
	var sum float64
	for _, y := range ys {
		sum += y
	}
	e.base = sum / float64(len(ys))

	resid := make([]float64, len(ys))
	for i, y := range ys {
		resid[i] = y - e.base
	}
	all := make([]int, len(ys))
	for i := range all {
		all[i] = i
	}
	rng := splitmix(cfg.Seed)
	bag := len(all)
	if cfg.Subsample < 1 {
		bag = int(cfg.Subsample*float64(len(all)) + 0.5)
		if bag < 1 {
			bag = 1
		}
	}
	for round := 0; round < cfg.Rounds; round++ {
		rows := all
		if bag < len(all) {
			rows = sampleRows(all, bag, &rng)
		}
		t := fitTree(xs, resid, rows, cfg)
		if t == nil {
			break // residuals constant on the bag: nothing left to fit
		}
		for i := range xs {
			resid[i] -= t.eval(xs[i])
		}
		e.trees = append(e.trees, *t)
	}
	return e
}

// sampleRows draws k distinct rows (a deterministic partial Fisher-Yates),
// returned in ascending order so the fit's accumulation order is stable.
func sampleRows(all []int, k int, rng *uint64) []int {
	pool := append([]int(nil), all...)
	for i := 0; i < k; i++ {
		j := i + int(nextRand(rng)%uint64(len(pool)-i))
		pool[i], pool[j] = pool[j], pool[i]
	}
	out := pool[:k]
	sort.Ints(out)
	return out
}

// splitmix seeds the bagging PRNG; nextRand advances it (splitmix64).
func splitmix(seed uint64) uint64 { return seed }

func nextRand(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fitTree grows one regression tree over rows, depth-first with the left
// child built before the right, so node indices — and the serialized bytes —
// depend only on the data. Returns nil when the root cannot improve on a
// constant (zero variance).
func fitTree(xs [][]float64, resid []float64, rows []int, cfg Config) *tree {
	t := &tree{}
	if build(t, xs, resid, rows, cfg.Depth, cfg) < 0 {
		return nil
	}
	return t
}

// build appends the subtree over rows and returns its node index, or -1 for
// an empty row set at the root.
func build(t *tree, xs [][]float64, resid []float64, rows []int, depth int, cfg Config) int32 {
	if len(rows) == 0 {
		return -1
	}
	var sum float64
	for _, i := range rows {
		sum += resid[i]
	}
	mean := sum / float64(len(rows))

	leaf := func() int32 {
		idx := int32(len(t.nodes))
		t.nodes = append(t.nodes, node{feat: -1, value: cfg.LearnRate * mean})
		return idx
	}
	if depth <= 0 || len(rows) < 2*cfg.MinLeaf {
		return leaf()
	}
	feat, thresh, ok := bestSplit(xs, resid, rows, cfg.MinLeaf)
	if !ok {
		return leaf()
	}
	var left, right []int
	for _, i := range rows {
		if xs[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{feat: int32(feat), thresh: thresh})
	l := build(t, xs, resid, left, depth-1, cfg)
	r := build(t, xs, resid, right, depth-1, cfg)
	t.nodes[idx].left, t.nodes[idx].right = l, r
	return idx
}

// bestSplit scans every (feature, threshold) exactly: rows are sorted by
// feature value (ties by row index, so the order is total and
// data-determined), and the squared-error gain of each boundary between
// distinct values is computed from running prefix sums. Strictly greater
// gain wins, so ties resolve to the lowest feature index and lowest
// threshold — the first candidate scanned.
func bestSplit(xs [][]float64, resid []float64, rows []int, minLeaf int) (feat int, thresh float64, ok bool) {
	n := len(rows)
	var totSum, totSq float64
	for _, i := range rows {
		totSum += resid[i]
		totSq += resid[i] * resid[i]
	}
	parentSSE := totSq - totSum*totSum/float64(n)

	order := make([]int, n)
	bestGain := 0.0
	for f := 0; f < len(xs[rows[0]]); f++ {
		copy(order, rows)
		sort.Slice(order, func(a, b int) bool {
			va, vb := xs[order[a]][f], xs[order[b]][f]
			if va != vb {
				return va < vb
			}
			return order[a] < order[b]
		})
		var lSum, lSq float64
		for k := 0; k < n-1; k++ {
			i := order[k]
			lSum += resid[i]
			lSq += resid[i] * resid[i]
			if xs[order[k+1]][f] == xs[i][f] {
				continue // not a boundary between distinct values
			}
			nl, nr := k+1, n-k-1
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			rSum := totSum - lSum
			sse := (lSq - lSum*lSum/float64(nl)) + (totSq - lSq - rSum*rSum/float64(nr))
			if gain := parentSSE - sse; gain > bestGain+1e-12 {
				bestGain = gain
				feat = f
				// The threshold is the exact left-boundary value: a midpoint
				// between near-adjacent floats can round up to the right-hand
				// value and leave one side of the "<=" partition empty.
				thresh = xs[i][f]
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

// Append serializes the model (magic, schema, config, features, both
// ensembles, trailing whole-blob FNV-1a checksum), mirroring the checkpoint
// cache's artifact format.
func (m *Model) Append(b []byte) []byte {
	start := len(b)
	b = codec.U32(b, modelMagic)
	b = codec.U32(b, modelSchema)
	b = codec.U32(b, uint32(m.cfg.Rounds))
	b = codec.U32(b, uint32(m.cfg.Depth))
	b = codec.F64(b, m.cfg.LearnRate)
	b = codec.U32(b, uint32(m.cfg.MinLeaf))
	b = codec.F64(b, m.cfg.Subsample)
	b = codec.U64(b, m.cfg.Seed)
	b = codec.U32(b, uint32(len(m.Features)))
	for _, f := range m.Features {
		b = codec.U32(b, uint32(len(f)))
		b = append(b, f...)
	}
	for _, e := range []*ensemble{&m.ipc, &m.mpki} {
		b = codec.F64(b, e.base)
		b = codec.U32(b, uint32(len(e.trees)))
		for i := range e.trees {
			nodes := e.trees[i].nodes
			b = codec.U32(b, uint32(len(nodes)))
			for _, n := range nodes {
				b = codec.I64(b, int64(n.feat))
				b = codec.F64(b, n.thresh)
				b = codec.I64(b, int64(n.left))
				b = codec.I64(b, int64(n.right))
				b = codec.F64(b, n.value)
			}
		}
	}
	return codec.Seal(b, start)
}

// Decode parses and validates a serialized model: checksum, magic, schema,
// and structural bounds (feature indices and child links in range). Any
// failure is an error — never a panic, never a silently wrong model.
func Decode(b []byte) (*Model, error) {
	body, err := codec.Unseal(b)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: model blob: %w", err)
	}
	r := codec.NewReader(body)
	if m := r.U32(); m != modelMagic {
		return nil, fmt.Errorf("perfmodel: model magic %#x", m)
	}
	if v := r.U32(); v != modelSchema {
		return nil, fmt.Errorf("perfmodel: model schema %d, want %d", v, modelSchema)
	}
	m := &Model{}
	m.cfg.Rounds = int(r.U32())
	m.cfg.Depth = int(r.U32())
	m.cfg.LearnRate = r.F64()
	m.cfg.MinLeaf = int(r.U32())
	m.cfg.Subsample = r.F64()
	m.cfg.Seed = r.U64()
	nf := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nf <= 0 || nf > 1<<16 {
		return nil, fmt.Errorf("perfmodel: model declares %d features", nf)
	}
	m.Features = make([]string, nf)
	for i := range m.Features {
		m.Features[i] = string(r.Bytes(int(r.U32())))
	}
	for _, e := range []*ensemble{&m.ipc, &m.mpki} {
		e.base = r.F64()
		nt := int(r.U32())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if nt < 0 || nt > 1<<20 {
			return nil, fmt.Errorf("perfmodel: model declares %d trees", nt)
		}
		e.trees = make([]tree, nt)
		for ti := range e.trees {
			nn := int(r.U32())
			if r.Err() != nil {
				return nil, r.Err()
			}
			if nn <= 0 || nn > 1<<20 {
				return nil, fmt.Errorf("perfmodel: tree %d declares %d nodes", ti, nn)
			}
			nodes := make([]node, nn)
			for i := range nodes {
				n := &nodes[i]
				n.feat = int32(r.I64())
				n.thresh = r.F64()
				n.left = int32(r.I64())
				n.right = int32(r.I64())
				n.value = r.F64()
				if r.Err() != nil {
					return nil, r.Err()
				}
				if n.feat >= 0 {
					if int(n.feat) >= nf {
						return nil, fmt.Errorf("perfmodel: tree %d node %d splits on feature %d of %d", ti, i, n.feat, nf)
					}
					if n.left < 0 || int(n.left) >= nn || n.right < 0 || int(n.right) >= nn {
						return nil, fmt.Errorf("perfmodel: tree %d node %d child out of range", ti, i)
					}
					// build appends parent before either subtree, so both
					// children of a valid tree point forward; a backward link
					// would let eval loop forever.
					if n.left <= int32(i) || n.right <= int32(i) {
						return nil, fmt.Errorf("perfmodel: tree %d node %d links backward (cycle)", ti, i)
					}
				}
			}
			e.trees[ti] = tree{nodes: nodes}
		}
	}
	if err := r.Expect(0); err != nil {
		return nil, err
	}
	return m, nil
}
