package core

import (
	"math/rand"
	"testing"

	"resilientloc/internal/deploy"
	"resilientloc/internal/eval"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/radio"
)

func TestDistributedConfigValidate(t *testing.T) {
	if err := DefaultDistributedConfig(0, 9).Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	bad := DefaultDistributedConfig(0, 9)
	bad.Root = -1
	if err := bad.Validate(); err == nil {
		t.Error("want error for negative root")
	}
	bad = DefaultDistributedConfig(0, 9)
	bad.MinShared = 2
	if err := bad.Validate(); err == nil {
		t.Error("want error for MinShared < 3")
	}
	bad = DefaultDistributedConfig(0, 9)
	bad.Local.Step = 0
	if err := bad.Validate(); err == nil {
		t.Error("want error for invalid local config")
	}
	bad = DefaultDistributedConfig(0, 9)
	bad.Link.LossRate = 2
	if err := bad.Validate(); err == nil {
		t.Error("want error for invalid link model")
	}
}

func TestDistributedInputErrors(t *testing.T) {
	s, _ := measure.NewSet(4)
	_ = s.Add(0, 1, 5, 1)
	rng := rand.New(rand.NewSource(3))
	if _, err := SolveDistributed(s, DefaultDistributedConfig(0, 9), nil); err == nil {
		t.Error("want error for nil rng")
	}
	if _, err := SolveDistributed(s, DefaultDistributedConfig(99, 9), rng); err == nil {
		t.Error("want error for out-of-range root")
	}
}

// TestDistributedDenseGraph reproduces the Figure 25 result: with rich
// distance measurements the distributed algorithm localizes everyone with
// sub-meter error.
func TestDistributedDenseGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dep := deploy.PaperGrid()
	dep.Positions = dep.Positions[:47]
	s, err := measure.Generate(dep, 22, 0.33, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultDistributedConfig(24, 9) // a central node as root
	res, err := SolveDistributed(s, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Localized) < 45 {
		t.Fatalf("localized %d of 47, want ≥45", len(res.Localized))
	}
	a, err := eval.FitSubset(res.Positions, dep.Positions, res.Localized)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 25: 0.534 m with the same augmented density.
	if a.AvgError > 1.5 {
		t.Errorf("avg error %.2f m on dense graph, want ≤ 1.5 (paper: 0.53)", a.AvgError)
	}
	if res.MessagesSent == 0 {
		t.Error("no messages accounted")
	}
	if res.Transforms == 0 {
		t.Error("no transforms computed")
	}
}

// TestDistributedSparseGraphDegrades reproduces the Figure 24 phenomenon:
// on the sparse field-like graph (247 pairs over 47 nodes) the distributed
// algorithm's error is far worse than the centralized one — bad local
// transforms are amplified and propagated.
func TestDistributedSparseGraphDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dep := deploy.PaperGrid()
	dep.Positions = dep.Positions[:47]
	s, err := measure.Generate(dep, 22, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	measure.Sparsify(s, 247, rng)

	// Paper-faithful local solving (random seeding only): local maps over
	// sparse neighborhoods then come out poor, and transform errors
	// propagate — the Figure 24 failure mode.
	distCfg := DefaultDistributedConfig(24, 9)
	distCfg.Local.SeedMDSMap = false
	distRes, err := SolveDistributed(s, distCfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}

	centRes, err := SolveLSS(s, DefaultLSSConfig(9.14), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	aCent, err := eval.Fit(centRes.Positions, dep.Positions)
	if err != nil {
		t.Fatal(err)
	}

	// Some nodes fail to align at all, and/or the aligned ones are much
	// worse than centralized — either form of degradation is acceptable.
	if len(distRes.Localized) >= 2 {
		aDist, err := eval.FitSubset(distRes.Positions, dep.Positions, distRes.Localized)
		if err != nil {
			t.Fatal(err)
		}
		degraded := len(distRes.Localized) < 40 || aDist.AvgError > 2*aCent.AvgError
		if !degraded {
			t.Errorf("distributed on sparse data (%.2f m over %d nodes) did not degrade vs centralized (%.2f m)",
				aDist.AvgError, len(distRes.Localized), aCent.AvgError)
		}
	}
}

// TestDistributedMessageLossReducesCoverage: heavy link loss must reduce the
// set of aligned nodes.
func TestDistributedMessageLossReducesCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dep, err := deploy.OffsetGrid(4, 4, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := measure.Generate(dep, 22, 0.33, rng)
	if err != nil {
		t.Fatal(err)
	}
	clean := DefaultDistributedConfig(5, 9)
	resClean, err := SolveDistributed(s, clean, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	lossy := DefaultDistributedConfig(5, 9)
	lossy.Link = radio.LinkModel{LossRate: 0.7}
	resLossy, err := SolveDistributed(s, lossy, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	if len(resLossy.Localized) >= len(resClean.Localized) {
		t.Errorf("lossy links localized %d ≥ clean %d", len(resLossy.Localized), len(resClean.Localized))
	}
}

// TestDistributedRootWithoutMapReturnsEmpty: a root with no local map (too
// few neighbors) cannot start alignment.
func TestDistributedRootWithoutMap(t *testing.T) {
	s, _ := measure.NewSet(5)
	// Node 4 has a single neighbor: no local map possible.
	_ = s.Add(4, 0, 5, 1)
	_ = s.Add(0, 1, 5, 1)
	_ = s.Add(1, 2, 5, 1)
	_ = s.Add(0, 2, 5, 1)
	cfg := DefaultDistributedConfig(4, 0)
	res, err := SolveDistributed(s, cfg, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Localized) != 0 {
		t.Errorf("root without local map aligned %v", res.Localized)
	}
}

func TestSolveLocalMapTooSparse(t *testing.T) {
	s, _ := measure.NewSet(4)
	_ = s.Add(0, 1, 5, 1)
	rng := rand.New(rand.NewSource(19))
	if m := solveLocalMap(s, 0, DefaultLSSConfig(0), rng); m != nil {
		t.Error("local map from a single measurement should fail")
	}
}

func TestFitFramesMinShared(t *testing.T) {
	src := map[int]geom.Point{1: geom.Pt(0, 0), 2: geom.Pt(1, 0), 3: geom.Pt(0, 1)}
	tr := geom.Transform{Theta: 0.5, Tx: 2, Ty: -1}
	dst := map[int]geom.Point{1: tr.Apply(src[1]), 2: tr.Apply(src[2]), 3: tr.Apply(src[3])}

	got, ok := fitFrames(src, dst, 3)
	if !ok {
		t.Fatal("fitFrames failed on 3 shared exact points")
	}
	for id, p := range src {
		if got.Apply(p).Dist(dst[id]) > 1e-9 {
			t.Errorf("node %d maps to %v, want %v", id, got.Apply(p), dst[id])
		}
	}

	// Too few shared nodes: must refuse.
	delete(src, 3)
	if _, ok := fitFrames(src, dst, 3); ok {
		t.Error("fitFrames accepted 2 shared points with MinShared=3")
	}
}

// TestFitFramesDeterministic: the pairwise transform is bit-identical on
// every call. The shared nodes used to enter the fit in map iteration
// order, so figure 24's average error differed in the last ulp from run to
// run.
func TestFitFramesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr := geom.Transform{Theta: 1.1, Tx: -3, Ty: 7, Flip: true}
	src, dst := map[int]geom.Point{}, map[int]geom.Point{}
	for id := 0; id < 40; id++ {
		p := geom.Pt(rng.Float64()*50, rng.Float64()*50)
		src[id] = p
		dst[id] = tr.Apply(p).Add(geom.Pt(rng.NormFloat64()*0.3, rng.NormFloat64()*0.3))
	}
	want, ok := fitFrames(src, dst, 3)
	if !ok {
		t.Fatal("fitFrames failed on 40 shared points")
	}
	for i := 0; i < 50; i++ {
		if got, _ := fitFrames(src, dst, 3); got != want {
			t.Fatalf("call %d: %v, want %v bit for bit", i, got, want)
		}
	}
}
