package stats

import (
	"math"
	"testing"
)

func approx(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); !approx(got, 4, 1e-3) {
		t.Errorf("GeoMean(2,8) = %v", got)
	}
	if got := GeoMean([]float64{1, 1, 1}); !approx(got, 1, 1e-9) {
		t.Errorf("GeoMean(ones) = %v", got)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{0}) != 0 {
		t.Error("degenerate geomean")
	}
}

func TestMAPE(t *testing.T) {
	if got := MAPE([]float64{1.1, 1.8}, []float64{1.0, 2.0}); !approx(got, 10, 1e-9) {
		t.Errorf("MAPE = %v, want 10", got)
	}
	// Zero measured values are skipped, not divided by.
	if got := MAPE([]float64{1.1, 5}, []float64{1.0, 0}); !approx(got, 10, 1e-9) {
		t.Errorf("MAPE with zero measured = %v, want 10", got)
	}
	if got := MAPE([]float64{2, 2}, []float64{2, 2}); !approx(got, 0, 1e-9) {
		t.Errorf("perfect MAPE = %v, want 0", got)
	}
	// Degenerate inputs are NaN so threshold gates fail loudly.
	if !math.IsNaN(MAPE(nil, nil)) {
		t.Error("empty MAPE should be NaN")
	}
	if !math.IsNaN(MAPE([]float64{1}, []float64{1, 2})) {
		t.Error("mismatched MAPE should be NaN")
	}
	if !math.IsNaN(MAPE([]float64{1}, []float64{0})) {
		t.Error("all-zero-measured MAPE should be NaN")
	}
}

func TestSpearman(t *testing.T) {
	// Any strictly monotone relation is exactly +1 / -1.
	a := []float64{1, 2, 3, 4, 5}
	up := []float64{10, 100, 1000, 10000, 100000}
	down := []float64{5, 4, 3, 2, 1}
	if got := Spearman(a, up); !approx(got, 1, 1e-12) {
		t.Errorf("monotone up = %v, want 1", got)
	}
	if got := Spearman(a, down); !approx(got, -1, 1e-12) {
		t.Errorf("monotone down = %v, want -1", got)
	}
	// Classic hand-computed example without ties: rho = 1 - 6*Σd²/(n(n²-1)).
	x := []float64{106, 86, 100, 101, 99, 103, 97, 113, 112, 110}
	y := []float64{7, 0, 27, 50, 28, 29, 20, 12, 6, 17}
	if got := Spearman(x, y); !approx(got, -29.0/165.0, 1e-12) {
		t.Errorf("textbook rho = %v, want %v", got, -29.0/165.0)
	}
	// Ties get average ranks: {1,2,2,4} vs itself is still exactly 1.
	tied := []float64{1, 2, 2, 4}
	if got := Spearman(tied, tied); !approx(got, 1, 1e-12) {
		t.Errorf("tied self-correlation = %v, want 1", got)
	}
	if !math.IsNaN(Spearman([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("constant side should be NaN")
	}
	if !math.IsNaN(Spearman([]float64{1}, []float64{1})) {
		t.Error("n=1 should be NaN")
	}
}
