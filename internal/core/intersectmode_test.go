package core

import (
	"math/rand"
	"testing"

	"resilientloc/internal/eval"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
)

func TestSolveNodeIntersectionModeExact(t *testing.T) {
	truth := geom.Pt(12, 7)
	anchorPos := []geom.Point{
		geom.Pt(0, 0), geom.Pt(25, 0), geom.Pt(0, 20), geom.Pt(25, 20), geom.Pt(12, -5),
	}
	obs := make([]anchorObs, len(anchorPos))
	for i, a := range anchorPos {
		obs[i] = anchorObs{pos: a, d: truth.Dist(a), weight: 1}
	}
	p, err := solveNodeIntersectionMode(&mlWorkspace{}, obs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dist(truth) > 0.05 {
		t.Errorf("mode estimate %v off truth %v by %.3f m", p, truth, p.Dist(truth))
	}
}

func TestSolveNodeIntersectionModeNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth := geom.Pt(10, 10)
	anchorPos := []geom.Point{
		geom.Pt(0, 0), geom.Pt(20, 0), geom.Pt(0, 20), geom.Pt(20, 20),
		geom.Pt(10, -4), geom.Pt(-4, 10),
	}
	obs := make([]anchorObs, len(anchorPos))
	for i, a := range anchorPos {
		obs[i] = anchorObs{pos: a, d: truth.Dist(a) + rng.NormFloat64()*0.2, weight: 1}
	}
	p, err := solveNodeIntersectionMode(&mlWorkspace{}, obs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dist(truth) > 0.6 {
		t.Errorf("mode estimate off by %.3f m with 0.2 m noise", p.Dist(truth))
	}
}

func TestSolveNodeIntersectionModeFailures(t *testing.T) {
	// Too few anchors.
	if _, err := solveNodeIntersectionMode(&mlWorkspace{}, []anchorObs{
		{pos: geom.Pt(0, 0), d: 5}, {pos: geom.Pt(10, 0), d: 5},
	}, 1); err == nil {
		t.Error("want error for <3 anchors")
	}
	// Circles that never intersect.
	if _, err := solveNodeIntersectionMode(&mlWorkspace{}, []anchorObs{
		{pos: geom.Pt(0, 0), d: 1},
		{pos: geom.Pt(100, 0), d: 1},
		{pos: geom.Pt(0, 100), d: 1},
	}, 1); err == nil {
		t.Error("want error for disjoint circles")
	}
}

// TestIntersectionModeEndToEnd runs the full multilateration with the mode
// estimator enabled and checks it matches least squares on clean data.
func TestIntersectionModeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	truth := []geom.Point{
		geom.Pt(0, 0), geom.Pt(30, 0), geom.Pt(0, 30), geom.Pt(30, 30), geom.Pt(15, -5),
		geom.Pt(10, 12), geom.Pt(22, 8), geom.Pt(6, 21),
	}
	s, err := measure.NewSet(len(truth))
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[int]geom.Point{0: truth[0], 1: truth[1], 2: truth[2], 3: truth[3], 4: truth[4]}
	for i := 5; i < len(truth); i++ {
		for a := 0; a < 5; a++ {
			d := truth[i].Dist(truth[a]) + rng.NormFloat64()*0.15
			if err := s.Add(i, a, d, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := DefaultMultilatConfig()
	cfg.UseIntersectionMode = true
	res, err := SolveMultilateration(s, anchors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Localized) != 3 {
		t.Fatalf("localized %v, want 3 nodes", res.Localized)
	}
	avg, _, err := eval.AvgErrorAbsolute(res.Positions, truth)
	if err != nil {
		t.Fatal(err)
	}
	if avg > 0.5 {
		t.Errorf("intersection-mode avg error %.3f m, want < 0.5", avg)
	}

	// Invalid configuration is rejected.
	bad := DefaultMultilatConfig()
	bad.UseIntersectionMode = true
	bad.MinModeAnchors = 2
	if err := bad.Validate(); err == nil {
		t.Error("want error for MinModeAnchors < 3")
	}
}
