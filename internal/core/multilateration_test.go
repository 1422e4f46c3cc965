package core

import (
	"math"
	"math/rand"
	"testing"

	"resilientloc/internal/deploy"
	"resilientloc/internal/eval"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/scratch"
)

func TestMultilatConfigValidate(t *testing.T) {
	if err := DefaultMultilatConfig().Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	off := DefaultMultilatConfig()
	off.ConsistencyRadius = 0 // the check off
	if err := off.Validate(); err != nil {
		t.Errorf("zero ConsistencyRadius invalid: %v", err)
	}
	bad := map[string]MultilatConfig{
		"negative ConsistencyRadius": {ConsistencyRadius: -1},
		"NaN ConsistencyRadius":      {ConsistencyRadius: math.NaN()},
		"+Inf ConsistencyRadius":     {ConsistencyRadius: math.Inf(1)},
		"-Inf ConsistencyRadius":     {ConsistencyRadius: math.Inf(-1)},
	}
	for name, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: config should be invalid", name)
		}
	}
}

// buildAnchoredSet creates a measurement set with exact distances from each
// non-anchor to every anchor within maxRange.
func buildAnchoredSet(t *testing.T, truth []geom.Point, anchorIdx []int, maxRange float64, noise float64, rng *rand.Rand) (*measure.Set, map[int]geom.Point) {
	t.Helper()
	s, err := measure.NewSet(len(truth))
	if err != nil {
		t.Fatal(err)
	}
	anchors := make(map[int]geom.Point)
	for _, a := range anchorIdx {
		anchors[a] = truth[a]
	}
	for i := range truth {
		if _, isA := anchors[i]; isA {
			continue
		}
		for _, a := range anchorIdx {
			d := truth[i].Dist(truth[a])
			if d > maxRange {
				continue
			}
			if noise > 0 {
				d += rng.NormFloat64() * noise
				if d <= 0.01 {
					d = 0.01
				}
			}
			if err := s.Add(i, a, d, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, anchors
}

func TestMultilatExact(t *testing.T) {
	truth := []geom.Point{
		geom.Pt(0, 0), geom.Pt(20, 0), geom.Pt(0, 20), geom.Pt(20, 20), // anchors
		geom.Pt(7, 9), geom.Pt(13, 4), geom.Pt(4, 16),
	}
	s, anchors := buildAnchoredSet(t, truth, []int{0, 1, 2, 3}, 1000, 0, nil)
	res, err := SolveMultilateration(s, anchors, DefaultMultilatConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Localized) != 3 {
		t.Fatalf("localized %v, want all 3 non-anchors", res.Localized)
	}
	for _, i := range res.Localized {
		if e := res.Positions[i].Dist(truth[i]); e > 1e-6 {
			t.Errorf("node %d error %g on exact data", i, e)
		}
	}
	if res.AvgAnchorsPerNode != 4 {
		t.Errorf("AvgAnchorsPerNode = %v, want 4", res.AvgAnchorsPerNode)
	}
}

func TestMultilatNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth := []geom.Point{
		geom.Pt(0, 0), geom.Pt(25, 0), geom.Pt(0, 25), geom.Pt(25, 25), geom.Pt(12, -3),
		geom.Pt(7, 9), geom.Pt(13, 4), geom.Pt(4, 16), geom.Pt(18, 18), geom.Pt(10, 21),
	}
	s, anchors := buildAnchoredSet(t, truth, []int{0, 1, 2, 3, 4}, 1000, 0.33, rng)
	res, err := SolveMultilateration(s, anchors, DefaultMultilatConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Localized) != 5 {
		t.Fatalf("localized %v, want all 5 non-anchors", res.Localized)
	}
	avg, _, err := eval.AvgErrorAbsolute(res.Positions, truth)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 12: 0.868 m average with real (worse) measurements; with
	// 0.33 m Gaussian noise and 5 anchors we expect well under that.
	if avg > 0.8 {
		t.Errorf("avg error %.3f m, want < 0.8", avg)
	}
}

// TestMultilatSparseBreakdown reproduces the Figure 14 phenomenon: with few
// anchors in range, most nodes cannot be localized.
func TestMultilatSparseBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dep := deploy.PaperGrid()
	if err := dep.ChooseRandomAnchors(13, rng); err != nil {
		t.Fatal(err)
	}
	anchors := make(map[int]geom.Point)
	for _, a := range dep.Anchors {
		anchors[a] = dep.Positions[a]
	}
	// Short-range measurements only (12 m): each node reaches ~0-2 anchors.
	s, err := measure.NewSet(dep.N())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dep.N(); i++ {
		for j := i + 1; j < dep.N(); j++ {
			d := dep.Positions[i].Dist(dep.Positions[j])
			if d <= 12 {
				_ = s.Add(i, j, d+rng.NormFloat64()*0.33, 1)
			}
		}
	}
	res, err := SolveMultilateration(s, anchors, DefaultMultilatConfig())
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(len(res.Localized)) / float64(len(dep.NonAnchors()))
	if frac > 0.5 {
		t.Errorf("localized fraction %.2f with sparse anchors, expected breakdown (<0.5)", frac)
	}
}

// TestIntersectionConsistencyDropsOutlier: an anchor with a wildly wrong
// distance must be filtered by the intersection consistency check, improving
// the fix.
func TestIntersectionConsistencyDropsOutlier(t *testing.T) {
	truth := geom.Pt(10, 10)
	anchorPos := []geom.Point{
		geom.Pt(0, 0), geom.Pt(20, 0), geom.Pt(0, 20), geom.Pt(22, 18),
	}
	obs := make([]anchorObs, 0, len(anchorPos)+1)
	for _, a := range anchorPos {
		obs = append(obs, anchorObs{pos: a, d: truth.Dist(a), weight: 1})
	}
	// A rogue anchor with a hugely overestimated distance.
	rogue := geom.Pt(40, 40)
	obs = append(obs, anchorObs{pos: rogue, d: truth.Dist(rogue) + 15, weight: 1})

	filtered := filterConsistentIn(&mlWorkspace{}, append([]anchorObs(nil), obs...), 1.0)
	for _, o := range filtered {
		if o.pos == rogue {
			t.Fatal("rogue anchor survived the consistency check")
		}
	}
	if len(filtered) != len(anchorPos) {
		t.Fatalf("filtered %d anchors, want %d", len(filtered), len(anchorPos))
	}

	// The filtered fix must beat the unfiltered one.
	pFiltered, err := solveNode(filtered)
	if err != nil {
		t.Fatal(err)
	}
	pAll, err := solveNode(obs)
	if err != nil {
		t.Fatal(err)
	}
	if pFiltered.Dist(truth) > pAll.Dist(truth) {
		t.Errorf("filtered error %.3f worse than unfiltered %.3f",
			pFiltered.Dist(truth), pAll.Dist(truth))
	}
	if pFiltered.Dist(truth) > 0.01 {
		t.Errorf("filtered fix error %.4f, want ≈0 on otherwise exact data", pFiltered.Dist(truth))
	}
}

func TestFilterConsistentFewAnchors(t *testing.T) {
	obs := []anchorObs{
		{pos: geom.Pt(0, 0), d: 5, weight: 1},
		{pos: geom.Pt(10, 0), d: 5, weight: 1},
	}
	if got := filterConsistentIn(&mlWorkspace{}, obs, 1); len(got) != 2 {
		t.Errorf("check with <3 anchors must be vacuous, got %d", len(got))
	}
}

func TestFilterConsistentAllInconsistentFallsBack(t *testing.T) {
	// Three anchors whose circles never come near each other: no cluster at
	// all; the filter must fall back to the original set rather than drop
	// every anchor.
	obs := []anchorObs{
		{pos: geom.Pt(0, 0), d: 1, weight: 1},
		{pos: geom.Pt(100, 0), d: 1, weight: 1},
		{pos: geom.Pt(0, 100), d: 1, weight: 1},
	}
	if got := filterConsistentIn(&mlWorkspace{}, obs, 1); len(got) != 3 {
		t.Errorf("expected fallback to all anchors, got %d", len(got))
	}
}

func TestMultilatProgressive(t *testing.T) {
	// Chain topology: node 4 sees only anchors; node 5 sees node 4 plus two
	// anchors — localizable only if node 4 is promoted.
	truth := []geom.Point{
		geom.Pt(0, 0), geom.Pt(20, 0), geom.Pt(10, 18), // anchors 0-2
		geom.Pt(40, 10), // anchor 3 (far side)
		geom.Pt(10, 6),  // node 4: sees anchors 0,1,2
		geom.Pt(24, 8),  // node 5: sees 1, 3, and node 4
	}
	s, err := measure.NewSet(6)
	if err != nil {
		t.Fatal(err)
	}
	add := func(i, j int) {
		if err := s.Add(i, j, truth[i].Dist(truth[j]), 1); err != nil {
			t.Fatal(err)
		}
	}
	add(4, 0)
	add(4, 1)
	add(4, 2)
	add(5, 1)
	add(5, 3)
	add(5, 4)
	anchors := map[int]geom.Point{0: truth[0], 1: truth[1], 2: truth[2], 3: truth[3]}

	plain := DefaultMultilatConfig()
	res, err := SolveMultilateration(s, anchors, plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Localized) != 1 || res.Localized[0] != 4 {
		t.Fatalf("non-progressive localized %v, want [4]", res.Localized)
	}

	prog := DefaultMultilatConfig()
	prog.Progressive = true
	res, err = SolveMultilateration(s, anchors, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Localized) != 2 {
		t.Fatalf("progressive localized %v, want [4 5]", res.Localized)
	}
	if e := res.Positions[5].Dist(truth[5]); e > 1e-5 {
		t.Errorf("progressive node 5 error %g", e)
	}
}

func TestMultilatInputErrors(t *testing.T) {
	s, _ := measure.NewSet(3)
	_ = s.Add(0, 1, 5, 1)
	if _, err := SolveMultilateration(s, nil, DefaultMultilatConfig()); err == nil {
		t.Error("want error for no anchors")
	}
	if _, err := SolveMultilateration(s, map[int]geom.Point{9: {}}, DefaultMultilatConfig()); err == nil {
		t.Error("want error for out-of-range anchor")
	}
	bad := DefaultMultilatConfig()
	bad.ConsistencyRadius = -1
	if _, err := SolveMultilateration(s, map[int]geom.Point{0: {}}, bad); err == nil {
		t.Error("want error for invalid config")
	}
	for _, p := range []geom.Point{{X: math.NaN()}, {Y: math.Inf(1)}, {X: math.Inf(-1), Y: 2}} {
		if _, err := SolveMultilateration(s, map[int]geom.Point{0: {}, 1: p}, DefaultMultilatConfig()); err == nil {
			t.Errorf("want error for non-finite anchor position %v", p)
		}
	}
}

// TestMultilatGridAllocCeiling holds a warmed progressive solve of a 14×14
// grid to at most 128 heap allocations: the result and the measurement list
// copy, nothing per node, pass or intersection point. The input is the one
// locbench's core probe times at seed 1.
func TestMultilatGridAllocCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := measure.Generate(deploy.Town(rng), 22, measure.GaussianNoise, rng); err != nil {
		t.Fatal(err)
	}
	dep, err := deploy.OffsetGrid(14, 14, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.ChooseRandomAnchors(dep.N()/10, rng); err != nil {
		t.Fatal(err)
	}
	set, err := measure.Generate(dep, 22, measure.GaussianNoise, rng)
	if err != nil {
		t.Fatal(err)
	}
	anchors := make(map[int]geom.Point, len(dep.Anchors))
	for _, a := range dep.Anchors {
		anchors[a] = dep.Positions[a]
	}
	cfg := DefaultMultilatConfig()
	cfg.Progressive = true
	ws := scratch.New()
	solve := func() {
		if _, err := SolveMultilaterationIn(ws, set, anchors, cfg); err != nil {
			t.Fatal(err)
		}
		ws.Release()
	}
	solve() // warm the arena
	if allocs := testing.AllocsPerRun(10, solve); allocs > 128 {
		t.Errorf("warmed grid solve made %v allocations, want ≤ 128", allocs)
	}
}

// TestGaussNewtonCollinearAnchors: perfectly collinear anchors make the
// normal equations singular; the node must be left unlocalized, not placed
// wildly.
func TestGaussNewtonCollinearAnchors(t *testing.T) {
	obs := []anchorObs{
		{pos: geom.Pt(0, 0), d: 10, weight: 1},
		{pos: geom.Pt(10, 0), d: 10, weight: 1},
		{pos: geom.Pt(20, 0), d: 10, weight: 1},
	}
	// The linear seed degenerates too; solveNode may fail or return a
	// finite point — it must not return NaN.
	p, err := solveNode(obs)
	if err == nil && !p.IsFinite() {
		t.Errorf("non-finite solution %v without error", p)
	}
}

func TestLinearSeedErrors(t *testing.T) {
	if _, err := linearSeed([]anchorObs{{pos: geom.Pt(0, 0), d: 1, weight: 1}}); err == nil {
		t.Error("want error for too few observations")
	}
}

func TestMultilatHandlesAnchorOnNode(t *testing.T) {
	// Node exactly on an anchor position: the Gauss-Newton nudge must keep
	// the solve finite.
	truth := []geom.Point{geom.Pt(0, 0), geom.Pt(20, 0), geom.Pt(0, 20), geom.Pt(0, 0)}
	s, err := measure.NewSet(4)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Add(3, 0, 0.01, 1) // nearly zero distance to anchor 0
	_ = s.Add(3, 1, 20, 1)
	_ = s.Add(3, 2, 20, 1)
	anchors := map[int]geom.Point{0: truth[0], 1: truth[1], 2: truth[2]}
	cfg := DefaultMultilatConfig()
	cfg.ConsistencyRadius = 0 // keep all three observations
	res, err := SolveMultilateration(s, anchors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Localized) == 1 {
		p := res.Positions[3]
		if !p.IsFinite() {
			t.Errorf("non-finite position %v", p)
		}
		if p.Dist(truth[3]) > 0.5 {
			t.Errorf("node on anchor localized %.3f m away", p.Dist(truth[3]))
		}
	}
}

func TestMultilatLocalMinimumVictims(t *testing.T) {
	// The paper observes gradient descent falling into local minima for
	// nodes outside the anchor hull (Figure 16's discussion). With anchors
	// nearly collinear and the node far off-axis, the reflected position is
	// a local minimum. We only require: the result is finite and the
	// residual is locally small.
	rng := rand.New(rand.NewSource(7))
	obs := []anchorObs{
		{pos: geom.Pt(0, 0), d: 0, weight: 1},
		{pos: geom.Pt(10, 0.1), d: 0, weight: 1},
		{pos: geom.Pt(20, -0.1), d: 0, weight: 1},
	}
	truthPt := geom.Pt(10, -14)
	for i := range obs {
		obs[i].d = truthPt.Dist(obs[i].pos) + rng.NormFloat64()*0.3
	}
	p, err := solveNode(obs)
	if err != nil {
		t.Skip("degenerate geometry rejected — acceptable")
	}
	if !p.IsFinite() {
		t.Fatalf("non-finite solution %v", p)
	}
	// Either the true position or its reflection across the anchor line.
	refl := geom.Pt(truthPt.X, -truthPt.Y)
	if p.Dist(truthPt) > 1.5 && p.Dist(refl) > 1.5 {
		t.Errorf("solution %v is neither truth %v nor its reflection %v", p, truthPt, refl)
	}
}

// TestFilterConsistentAllocFree holds a warmed consistency check to zero
// heap allocations on an input of at least 300 intersection points, above
// the largest calls of the grid benchmarks: the sort order, near rows,
// support counts and keep flags all reuse the workspace.
func TestFilterConsistentAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	truth := geom.Pt(10, 10)
	obs := make([]anchorObs, 19)
	for i := range obs {
		a := geom.Pt(rng.Float64()*40-10, rng.Float64()*40-10)
		obs[i] = anchorObs{pos: a, d: truth.Dist(a) + rng.NormFloat64()*0.3, weight: 1}
	}
	w := &mlWorkspace{}
	if np := len(intersections(w, obs, 0.5)); np < 300 {
		t.Fatalf("input has %d intersection points, want at least 300", np)
	}
	in := make([]anchorObs, len(obs))
	check := func() {
		copy(in, obs)
		filterConsistentIn(w, in, 1)
	}
	check() // size the workspace
	if allocs := testing.AllocsPerRun(20, check); allocs != 0 {
		t.Errorf("warmed filterConsistentIn made %v allocations, want 0", allocs)
	}
}
