package eval

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"resilientloc/internal/geom"
)

func TestFitRecoversRigidMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10), geom.Pt(4, 7),
	}
	tr := geom.Transform{Theta: 1.2, Tx: -30, Ty: 12, Flip: true}
	est := tr.ApplyAll(truth)
	// Shuffle-free: est[i] corresponds to truth[i].
	a, err := Fit(est, truth)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgError > 1e-9 {
		t.Errorf("AvgError = %g on pure rigid motion", a.AvgError)
	}
	if a.MaxError > 1e-9 {
		t.Errorf("MaxError = %g on pure rigid motion", a.MaxError)
	}
	_ = rng
}

// TestFitRejectsNonFinite: a NaN or infinite coordinate in either input
// fails Fit with an error naming the point, where a NaN estimate used to
// give AvgError = NaN and a nil error.
func TestFitRejectsNonFinite(t *testing.T) {
	truth := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, side := range []string{"estimate", "truth"} {
			est, tru := append([]geom.Point(nil), truth...), append([]geom.Point(nil), truth...)
			if side == "estimate" {
				est[2].X = bad
			} else {
				tru[2].Y = bad
			}
			a, err := Fit(est, tru)
			if err == nil || !strings.Contains(err.Error(), "non-finite point 2") {
				t.Errorf("%s coordinate %v: Fit = %+v, %v; want a non-finite point error", side, bad, a, err)
			}
		}
	}
}

func TestFitWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	truth := make([]geom.Point, 30)
	for i := range truth {
		truth[i] = geom.Pt(rng.Float64()*60, rng.Float64()*60)
	}
	tr := geom.Transform{Theta: -0.7, Tx: 5, Ty: 5}
	est := tr.ApplyAll(truth)
	for i := range est {
		est[i] = est[i].Add(geom.Pt(rng.NormFloat64()*0.5, rng.NormFloat64()*0.5))
	}
	a, err := Fit(est, truth)
	if err != nil {
		t.Fatal(err)
	}
	// Noise std 0.5 per axis → expected positional error ≈ 0.6; alignment
	// cannot remove it but also must not inflate it.
	if a.AvgError > 1.0 {
		t.Errorf("AvgError = %.3f, want ≈0.6", a.AvgError)
	}
	if len(a.Errors) != 30 {
		t.Errorf("Errors length %d", len(a.Errors))
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]geom.Point{{}}, []geom.Point{{}, {}}); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := Fit([]geom.Point{{}}, []geom.Point{{}}); err == nil {
		t.Error("want error for single point")
	}
}

func TestFitSubset(t *testing.T) {
	truth := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10), geom.Pt(10, 10)}
	est := map[int]geom.Point{
		0: geom.Pt(1, 1), 2: geom.Pt(1, 11), 3: geom.Pt(11, 11),
	}
	a, err := FitSubset(est, truth, []int{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// est is truth translated by (1,1): perfect after alignment.
	if a.AvgError > 1e-9 {
		t.Errorf("AvgError = %g", a.AvgError)
	}
	if _, err := FitSubset(est, truth, []int{0}); err == nil {
		t.Error("want error for <2 nodes")
	}
	if _, err := FitSubset(est, truth, []int{0, 1}); err == nil {
		t.Error("want error for missing estimate")
	}
	if _, err := FitSubset(map[int]geom.Point{0: {}, 9: {}}, truth, []int{0, 9}); err == nil {
		t.Error("want error for out-of-range node")
	}
}

func TestAvgErrorAbsolute(t *testing.T) {
	truth := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	est := map[int]geom.Point{0: geom.Pt(0, 1), 1: geom.Pt(10, 3)}
	avg, worst, err := AvgErrorAbsolute(est, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg-2) > 1e-12 {
		t.Errorf("avg = %v, want 2", avg)
	}
	if math.Abs(worst-3) > 1e-12 {
		t.Errorf("worst = %v, want 3", worst)
	}
	if _, _, err := AvgErrorAbsolute(nil, truth); err == nil {
		t.Error("want error for empty estimates")
	}
	if _, _, err := AvgErrorAbsolute(map[int]geom.Point{7: {}}, truth); err == nil {
		t.Error("want error for out-of-range node")
	}
}

func TestTrimmedAvg(t *testing.T) {
	errs := []float64{1, 1, 1, 1, 10}
	full, err := TrimmedAvg(errs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-2.8) > 1e-12 {
		t.Errorf("untrimmed = %v, want 2.8", full)
	}
	trimmed, err := TrimmedAvg(errs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(trimmed-1) > 1e-12 {
		t.Errorf("trimmed = %v, want 1", trimmed)
	}
	if _, err := TrimmedAvg(nil, 0); err == nil {
		t.Error("want error for empty input")
	}
	if _, err := TrimmedAvg(errs, 5); err == nil {
		t.Error("want error for trimming everything")
	}
	if _, err := TrimmedAvg(errs, -1); err == nil {
		t.Error("want error for negative k")
	}
}
