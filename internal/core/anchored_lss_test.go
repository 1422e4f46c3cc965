package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"resilientloc/internal/deploy"
	"resilientloc/internal/eval"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
)

// TestAnchoredLSSAbsoluteFrame: with anchors pinned, the LSS output is in
// the anchors' absolute frame — no alignment needed.
func TestAnchoredLSSAbsoluteFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dep, err := deploy.OffsetGrid(4, 4, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	set, err := measure.Generate(dep, 25, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLSSConfig(9)
	cfg.Anchors = map[int]geom.Point{
		0:  dep.Positions[0],
		3:  dep.Positions[3],
		12: dep.Positions[12],
	}
	res, err := SolveLSS(set, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Anchors must be exactly where they were pinned.
	for a, want := range cfg.Anchors {
		if res.Positions[a] != want {
			t.Errorf("anchor %d moved: %v != %v", a, res.Positions[a], want)
		}
	}
	// Non-anchors must be near truth in the absolute frame (no Fit).
	avg, worst, err := eval.AvgErrorAbsolute(positionsToMap(res.Positions), dep.Positions)
	if err != nil {
		t.Fatal(err)
	}
	if avg > 0.5 {
		t.Errorf("anchored LSS absolute avg error %.3f m, want < 0.5 (worst %.3f)", avg, worst)
	}
}

func positionsToMap(pts []geom.Point) map[int]geom.Point {
	m := make(map[int]geom.Point, len(pts))
	for i, p := range pts {
		m[i] = p
	}
	return m
}

func TestAnchoredLSSOutOfRangeAnchor(t *testing.T) {
	s, _ := measure.NewSet(4)
	_ = s.Add(0, 1, 5, 1)
	cfg := DefaultLSSConfig(0)
	cfg.Anchors = map[int]geom.Point{9: geom.Pt(0, 0)}
	if _, err := SolveLSS(s, cfg, rand.New(rand.NewSource(5))); err == nil {
		t.Error("want error for out-of-range anchor")
	}
}

// TestAnchoredLSSNonFiniteAnchor: a NaN or infinite anchor position is an
// input error naming the anchor, not a solve that reports a NaN or +Inf
// objective over an untouched random start.
func TestAnchoredLSSNonFiniteAnchor(t *testing.T) {
	s, _ := measure.NewSet(4)
	_ = s.Add(0, 1, 5, 1)
	_ = s.Add(1, 2, 5, 1)
	_ = s.Add(2, 3, 5, 1)
	for _, p := range []geom.Point{
		geom.Pt(math.NaN(), 0), geom.Pt(0, math.NaN()),
		geom.Pt(math.Inf(1), 0), geom.Pt(0, math.Inf(-1)),
	} {
		cfg := DefaultLSSConfig(0)
		cfg.Anchors = map[int]geom.Point{0: geom.Pt(0, 0), 2: p}
		_, err := SolveLSS(s, cfg, rand.New(rand.NewSource(5)))
		if err == nil || !strings.Contains(err.Error(), "anchor 2") {
			t.Errorf("anchor 2 at %v: err = %v, want one naming anchor 2", p, err)
		}
	}
}

// TestAnchoredLSSResolvesReflection: distances alone cannot distinguish a
// configuration from its mirror image; three non-collinear anchors do.
func TestAnchoredLSSResolvesReflection(t *testing.T) {
	truth := []geom.Point{
		geom.Pt(0, 0), geom.Pt(12, 0), geom.Pt(0, 12), // anchors
		geom.Pt(9, 9), geom.Pt(4, 7),
	}
	s, err := measure.NewSet(len(truth))
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		for j := i + 1; j < len(truth); j++ {
			if err := s.Add(i, j, truth[i].Dist(truth[j]), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := DefaultLSSConfig(0)
	cfg.Anchors = map[int]geom.Point{0: truth[0], 1: truth[1], 2: truth[2]}
	res, err := SolveLSS(s, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < len(truth); i++ {
		if d := res.Positions[i].Dist(truth[i]); d > 0.01 {
			t.Errorf("node %d at %v, want %v (err %.4f) — reflection not resolved?",
				i, res.Positions[i], truth[i], d)
		}
	}
}

// TestAnchoredLSSWithMDSSeed exercises the anchor-registration path of the
// MDS-MAP seeding.
func TestAnchoredLSSWithMDSSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dep, err := deploy.OffsetGrid(3, 3, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	set, err := measure.Generate(dep, 25, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLSSConfig(9)
	cfg.SeedMDSMap = true
	cfg.Anchors = map[int]geom.Point{0: dep.Positions[0], 2: dep.Positions[2], 6: dep.Positions[6]}
	res, err := SolveLSS(set, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	avg, _, err := eval.AvgErrorAbsolute(positionsToMap(res.Positions), dep.Positions)
	if err != nil {
		t.Fatal(err)
	}
	if avg > 0.5 {
		t.Errorf("anchored+seeded LSS avg error %.3f m, want < 0.5", avg)
	}
}

// TestAnchoredLSSDeterministic: the same anchored input must give the same
// bits on every solve. The MDS-MAP seed is registered onto the anchors with
// FitRigid, whose sums depend on the order the anchors are listed in.
func TestAnchoredLSSDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dep := deploy.Town(rng)
	set, err := measure.Generate(dep, 22, measure.GaussianNoise, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLSSConfig(9)
	cfg.Restarts = 0
	cfg.Anchors = map[int]geom.Point{3: dep.Positions[3], 20: dep.Positions[20], 50: dep.Positions[50]}
	var first *LSSResult
	for run := 0; run < 10; run++ {
		res, err := SolveLSS(set, cfg, rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if msg := lssResultDiff(res, first); msg != "" {
			t.Fatalf("solve %d differs from solve 0: %s", run, msg)
		}
	}
}
