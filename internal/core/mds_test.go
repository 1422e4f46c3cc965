package core

import (
	"math/rand"
	"testing"

	"resilientloc/internal/deploy"
	"resilientloc/internal/eval"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
)

func completeSet(t *testing.T, truth []geom.Point, noise float64, rng *rand.Rand) *measure.Set {
	t.Helper()
	s, err := measure.NewSet(len(truth))
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		for j := i + 1; j < len(truth); j++ {
			d := truth[i].Dist(truth[j])
			if noise > 0 {
				d += rng.NormFloat64() * noise
				if d <= 0.01 {
					d = 0.01
				}
			}
			if err := s.Add(i, j, d, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func TestClassicalMDSExact(t *testing.T) {
	truth := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10), geom.Pt(5, 3),
	}
	s := completeSet(t, truth, 0, nil)
	pts, err := SolveClassicalMDS(s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eval.Fit(pts, truth)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgError > 1e-6 {
		t.Errorf("avg error %g on exact complete distances", a.AvgError)
	}
}

func TestClassicalMDSNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dep, _ := deploy.OffsetGrid(4, 4, 9, 10)
	s := completeSet(t, dep.Positions, 0.33, rng)
	pts, err := SolveClassicalMDS(s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eval.Fit(pts, dep.Positions)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgError > 0.5 {
		t.Errorf("avg error %.3f m with complete noisy distances", a.AvgError)
	}
}

func TestClassicalMDSRequiresCompleteMatrix(t *testing.T) {
	truth := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}
	s, _ := measure.NewSet(len(truth))
	for i := range truth {
		for j := i + 1; j < len(truth); j++ {
			if i != 0 || j != 2 {
				_ = s.Add(i, j, truth[i].Dist(truth[j]), 1)
			}
		}
	}
	if _, err := SolveClassicalMDS(s); err == nil {
		t.Error("want error for missing pair — the LSS motivation")
	}
}

func TestClassicalMDSTooFewNodes(t *testing.T) {
	s, _ := measure.NewSet(2)
	_ = s.Add(0, 1, 5, 1)
	if _, err := SolveClassicalMDS(s); err == nil {
		t.Error("want error for n < 3")
	}
}

func TestMDSMapSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dep, _ := deploy.OffsetGrid(4, 4, 9, 10)
	s, err := measure.Generate(dep, 15, 0.33, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Connected() {
		t.Fatal("test graph disconnected")
	}
	pts, err := SolveMDSMap(s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eval.Fit(pts, dep.Positions)
	if err != nil {
		t.Fatal(err)
	}
	// Shortest-path completion distorts long distances; MDS-MAP is a rough
	// initializer, not a precision localizer.
	if a.AvgError > 5 {
		t.Errorf("MDS-MAP avg error %.2f m, want < 5 on a well-connected grid", a.AvgError)
	}
}

func TestMDSMapDisconnected(t *testing.T) {
	s, _ := measure.NewSet(4)
	_ = s.Add(0, 1, 5, 1)
	_ = s.Add(2, 3, 5, 1)
	if _, err := SolveMDSMap(s); err == nil {
		t.Error("want error for disconnected graph")
	}
}

// TestLSSBeatsMDSMapOnSparseData: the paper's motivation for LSS over
// MDS-style approaches on sparse range-limited data.
func TestLSSBeatsMDSMapOnSparseData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dep := deploy.PaperGrid()
	s, err := measure.Generate(dep, 15, 0.33, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Connected() {
		t.Fatal("test graph disconnected")
	}
	mdsPts, err := SolveMDSMap(s)
	if err != nil {
		t.Fatal(err)
	}
	aMDS, err := eval.Fit(mdsPts, dep.Positions)
	if err != nil {
		t.Fatal(err)
	}
	lss, err := SolveLSS(s, DefaultLSSConfig(9), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	aLSS, err := eval.Fit(lss.Positions, dep.Positions)
	if err != nil {
		t.Fatal(err)
	}
	if aLSS.AvgError >= aMDS.AvgError {
		t.Errorf("LSS (%.2f m) should beat MDS-MAP (%.2f m) on sparse data", aLSS.AvgError, aMDS.AvgError)
	}
}
