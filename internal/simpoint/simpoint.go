// Package simpoint implements a compact version of the SimPoints methodology
// [Sherwood et al., ASPLOS 2002] the paper uses to pick representative
// regions: the dynamic instruction stream is chunked into fixed-size
// intervals, each interval is summarized by its basic-block vector (BBV),
// the vectors are clustered with k-means, and each cluster contributes
// size-proportional representative intervals (SimPoints) whose weights sum
// to its share of the run.
package simpoint

import (
	"sort"

	"phelps/internal/graph"
)

// BBVCollector accumulates basic-block vectors over fixed instruction
// intervals. Feed it retired control-flow edges (or simply PCs of retired
// basic-block heads); it chunks them into intervals.
type BBVCollector struct {
	intervalLen uint64
	count       uint64
	current     map[uint64]float64
	intervals   []map[uint64]float64
}

// NewBBVCollector returns a collector with the given interval length in
// instructions.
func NewBBVCollector(intervalLen uint64) *BBVCollector {
	return &BBVCollector{
		intervalLen: intervalLen,
		current:     make(map[uint64]float64),
	}
}

// Observe records one retired instruction at pc; basic blocks are
// approximated by 32-byte PC regions (8 instructions), which is faithful
// enough for clustering.
func (c *BBVCollector) Observe(pc uint64) {
	c.current[pc>>5]++
	c.count++
	if c.count%c.intervalLen == 0 {
		c.intervals = append(c.intervals, c.current)
		c.current = make(map[uint64]float64)
	}
}

// Flush closes the final partial interval if it covers at least half the
// interval length.
func (c *BBVCollector) Flush() {
	if uint64(len(c.current)) > 0 && c.count%c.intervalLen >= c.intervalLen/2 {
		c.intervals = append(c.intervals, c.current)
	}
	c.current = make(map[uint64]float64)
}

// ObserveBlock records one retired basic block of n instructions headed at
// pc. It is the batch form of Observe that emu.FastForward's Block callback
// feeds: all n instructions are credited to the head's BBV dimension, and a
// block spanning an interval boundary is split exactly so every interval
// holds precisely intervalLen instructions.
func (c *BBVCollector) ObserveBlock(pc, n uint64) {
	key := pc >> 5
	for n > 0 {
		room := c.intervalLen - c.count%c.intervalLen
		take := n
		if take > room {
			take = room
		}
		c.current[key] += float64(take)
		c.count += take
		n -= take
		if take == room {
			c.intervals = append(c.intervals, c.current)
			c.current = make(map[uint64]float64)
		}
	}
}

// Intervals returns the collected BBVs.
func (c *BBVCollector) Intervals() []map[uint64]float64 { return c.intervals }

// MergeIntervals coalesces each group of g consecutive interval BBVs into
// one (summing vectors). A final partial group is kept only if it covers at
// least half a merged interval, mirroring Flush. It lets a profiling pass
// collect BBVs live at a fine fixed grain before the final interval length
// — a multiple of that grain — is known.
func MergeIntervals(ivs []map[uint64]float64, g int) []map[uint64]float64 {
	if g <= 1 {
		return ivs
	}
	out := make([]map[uint64]float64, 0, (len(ivs)+g-1)/g)
	for lo := 0; lo < len(ivs); lo += g {
		hi := lo + g
		if hi > len(ivs) {
			if 2*(len(ivs)-lo) < g {
				break
			}
			hi = len(ivs)
		}
		m := make(map[uint64]float64, len(ivs[lo]))
		for _, iv := range ivs[lo:hi] {
			for k, v := range iv {
				m[k] += v
			}
		}
		out = append(out, m)
	}
	return out
}

// SimPoint is one representative interval.
type SimPoint struct {
	Interval int     // index of the representative interval
	Weight   float64 // fraction of intervals in its cluster
}

// Pick clusters the intervals into at most k clusters (k-means with random
// restarts on the sparse BBVs, L1-normalized) and returns weighted
// SimPoints sorted by weight descending. Each non-empty cluster yields
// representatives proportional to its size — about k points in total,
// never more than 2k — spread across the cluster's temporal extent so a
// phase whose BBVs collapse into one cluster is not represented solely by
// its (cold) earliest interval. Deterministic for a given seed.
func Pick(intervals []map[uint64]float64, k int, seed uint64) []SimPoint {
	n := len(intervals)
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	norm := make([]bbvec, n)
	for i, v := range intervals {
		norm[i] = toVec(v).normalize()
	}
	r := graph.NewRand(seed)

	// k-means++ style init: first centroid random, the rest far away.
	// Centroid entries are only ever replaced wholesale, so sharing a
	// member's backing slices is safe.
	centroids := make([]bbvec, 0, k)
	centroids = append(centroids, norm[r.Intn(n)])
	for len(centroids) < k {
		best, bestD := 0, -1.0
		for i := 0; i < n; i++ {
			d := minDist(norm[i], centroids)
			if d > bestD {
				best, bestD = i, d
			}
		}
		if bestD <= 0 {
			break // all remaining points coincide with centroids
		}
		centroids = append(centroids, norm[best])
	}

	assign := make([]int, n)
	for iter := 0; iter < 10; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			bi, bd := 0, vdist(norm[i], centroids[0])
			for j := 1; j < len(centroids); j++ {
				if d := vdist(norm[i], centroids[j]); d < bd {
					bi, bd = j, d
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids. Per-key sums accumulate in ascending member
		// order (the map only stores; no cross-key reduction), so the result
		// is deterministic; the extraction sort fixes the key order.
		for j := range centroids {
			sum := make(map[uint64]float64)
			cnt := 0
			for i := 0; i < n; i++ {
				if assign[i] != j {
					continue
				}
				cnt++
				v := &norm[i]
				for t, b := range v.keys {
					sum[b] += v.ws[t]
				}
			}
			if cnt == 0 {
				continue
			}
			c := toVec(sum)
			for t := range c.ws {
				c.ws[t] /= float64(cnt)
			}
			centroids[j] = c
		}
	}

	// Stratified representatives: each cluster gets reps proportional to its
	// share of the run (at least one, at most its member count), spread over
	// contiguous temporal segments of its member list. BBVs capture code, not
	// data — a big cluster of identical-code intervals can still ramp in
	// performance as caches warm over the run, and a single early
	// representative would bias the whole cluster cold. Within a segment the
	// rep is the member closest to the centroid; (near-)ties break toward the
	// segment's temporal median.
	type cluster struct {
		members []int
		dists   []float64
	}
	cl := make([]cluster, len(centroids))
	for i := 0; i < n; i++ {
		j := assign[i]
		cl[j].members = append(cl[j].members, i)
		cl[j].dists = append(cl[j].dists, vdist(norm[i], centroids[j]))
	}
	var out []SimPoint
	for _, c := range cl {
		m := len(c.members)
		if m == 0 {
			continue
		}
		reps := int(float64(k)*float64(m)/float64(n) + 0.5)
		if reps < 1 {
			reps = 1
		}
		if reps > m {
			reps = m
		}
		for s := 0; s < reps; s++ {
			lo, hi := s*m/reps, (s+1)*m/reps
			dmin := c.dists[lo]
			for i := lo + 1; i < hi; i++ {
				if c.dists[i] < dmin {
					dmin = c.dists[i]
				}
			}
			const eps = 1e-9
			mid := c.members[(lo+hi)/2]
			rep, repGap := -1, 0
			for i := lo; i < hi; i++ {
				if c.dists[i] > dmin+eps {
					continue
				}
				gap := c.members[i] - mid
				if gap < 0 {
					gap = -gap
				}
				if rep < 0 || gap < repGap {
					rep, repGap = c.members[i], gap
				}
			}
			out = append(out, SimPoint{Interval: rep, Weight: float64(hi-lo) / float64(n)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Interval < out[j].Interval
	})
	return out
}

// bbvec is a sparse BBV with keys in ascending order. Every float reduction
// over one (normalization sums, distances, centroid averages) walks the keys
// in this single fixed order. Reducing over map iteration order instead would
// make the non-associative float sums — and through them k-means tie-breaks,
// the picked points, and the whole sampled Result — vary from process to
// process.
type bbvec struct {
	keys []uint64
	ws   []float64
}

// toVec sorts a sparse map into a bbvec.
func toVec(v map[uint64]float64) bbvec {
	keys := make([]uint64, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	ws := make([]float64, len(keys))
	for i, k := range keys {
		ws[i] = v[k]
	}
	return bbvec{keys: keys, ws: ws}
}

// normalize scales the vector to sum 1 (key order, so the sum is exact).
func (v bbvec) normalize() bbvec {
	var sum float64
	for _, w := range v.ws {
		sum += w
	}
	out := bbvec{keys: v.keys, ws: make([]float64, len(v.ws))}
	if sum == 0 {
		return out
	}
	for i, w := range v.ws {
		out.ws[i] = w / sum
	}
	return out
}

// vdist is the Manhattan distance between sorted sparse vectors: a linear
// merge walk, accumulating in ascending key order.
func vdist(a, b bbvec) float64 {
	var d float64
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			d += a.ws[i]
			i++
		case a.keys[i] > b.keys[j]:
			d += b.ws[j]
			j++
		default:
			if a.ws[i] > b.ws[j] {
				d += a.ws[i] - b.ws[j]
			} else {
				d += b.ws[j] - a.ws[i]
			}
			i++
			j++
		}
	}
	for ; i < len(a.keys); i++ {
		d += a.ws[i]
	}
	for ; j < len(b.keys); j++ {
		d += b.ws[j]
	}
	return d
}

// dist is the Manhattan distance between sparse map vectors (deterministic:
// both sides are key-sorted before accumulating).
func dist(a, b map[uint64]float64) float64 {
	return vdist(toVec(a), toVec(b))
}

func minDist(v bbvec, cs []bbvec) float64 {
	best := -1.0
	for _, c := range cs {
		d := vdist(v, c)
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}
