package simpoint

import "math"

// Features is a fixed-length numeric summary of a workload's interval BBVs —
// the phase-behavior half of the perfmodel feature vector. Every field is a
// scale-free statistic over the normalized interval vectors, so workloads of
// different lengths and instruction counts are comparable.
//
// All reductions run over key-sorted sparse vectors (bbvec), never map
// iteration, so the summary is bit-identical across processes — the model
// trained on these features must serialize byte-identically (see
// perfmodel's determinism tests).
type Features struct {
	Intervals  int // interval count after chunking
	CodeBlocks int // distinct BBV dimensions touched across the run

	// PhaseChurn is the mean Manhattan distance between consecutive
	// normalized interval vectors (0 = one steady phase, 2 = disjoint code
	// every interval); MaxChurn is the largest single transition.
	PhaseChurn float64
	MaxChurn   float64

	// Concentration is the mean per-interval share of the hottest block
	// (1 = each interval spins in a single 32-byte region). Entropy is the
	// mean per-interval Shannon entropy of the block distribution,
	// normalized by log2(dimensions) into [0,1] (0 = single block, 1 =
	// uniform over the interval's footprint).
	Concentration float64
	Entropy       float64
}

// FeatureNames returns the feature labels in the exact order Vector emits
// values, for model metadata and reports.
func FeatureNames() []string {
	return []string{
		"bbv_intervals", "bbv_code_blocks", "bbv_phase_churn",
		"bbv_max_churn", "bbv_concentration", "bbv_entropy",
	}
}

// Vector flattens the summary into the FeatureNames order.
func (f Features) Vector() []float64 {
	return []float64{
		float64(f.Intervals), float64(f.CodeBlocks), f.PhaseChurn,
		f.MaxChurn, f.Concentration, f.Entropy,
	}
}

// IntervalFeatures summarizes interval BBVs (as collected by BBVCollector)
// into a Features vector. Empty input returns the zero value.
func IntervalFeatures(ivs []map[uint64]float64) Features {
	var f Features
	f.Intervals = len(ivs)
	if len(ivs) == 0 {
		return f
	}

	norm := make([]bbvec, len(ivs))
	seen := make(map[uint64]struct{})
	for i, iv := range ivs {
		norm[i] = toVec(iv).normalize()
		for k := range iv {
			seen[k] = struct{}{}
		}
	}
	f.CodeBlocks = len(seen)

	for i := 1; i < len(norm); i++ {
		d := vdist(norm[i-1], norm[i])
		f.PhaseChurn += d
		if d > f.MaxChurn {
			f.MaxChurn = d
		}
	}
	if len(norm) > 1 {
		f.PhaseChurn /= float64(len(norm) - 1)
	}

	for _, v := range norm {
		var top, ent float64
		for _, w := range v.ws {
			if w > top {
				top = w
			}
			if w > 0 {
				ent -= w * math.Log2(w)
			}
		}
		f.Concentration += top
		if n := len(v.ws); n > 1 {
			ent /= math.Log2(float64(n))
		} else {
			ent = 0
		}
		f.Entropy += ent
	}
	f.Concentration /= float64(len(norm))
	f.Entropy /= float64(len(norm))
	return f
}
