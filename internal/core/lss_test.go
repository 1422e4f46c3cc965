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
	"resilientloc/internal/scratch"
)

func TestLSSConfigValidate(t *testing.T) {
	if err := DefaultLSSConfig(9).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []LSSConfig{
		{DMin: -1, Step: 0.1, MaxIters: 10},
		{Step: 0, MaxIters: 10},
		{Step: 0.1, MaxIters: 0},
		{Step: 0.1, MaxIters: 10, Restarts: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

// TestLSSConfigValidateRejectsNonFinite: NaN and ±Inf in any float field
// must fail Validate, in LSSConfig itself and through DistributedConfig's
// Local, and SolveLSS must refuse such a config rather than return NaN or
// infinite results.
func TestLSSConfigValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(c *LSSConfig, v float64)
	}{
		{"DMin", func(c *LSSConfig, v float64) { c.DMin = v }},
		{"Step", func(c *LSSConfig, v float64) { c.Step = v }},
		{"InitSpread", func(c *LSSConfig, v float64) { c.InitSpread = v }},
	}
	s, _ := measure.NewSet(3)
	_ = s.Add(0, 1, 5, 1)
	_ = s.Add(1, 2, 5, 1)
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultLSSConfig(9)
			f.set(&cfg, v)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s = %v: Validate accepted it", f.name, v)
			}
			dcfg := DefaultDistributedConfig(0, 9)
			f.set(&dcfg.Local, v)
			if err := dcfg.Validate(); err == nil {
				t.Errorf("%s = %v: DistributedConfig.Validate accepted it", f.name, v)
			}
			if _, err := SolveLSS(s, cfg, rand.New(rand.NewSource(1))); err == nil {
				t.Errorf("%s = %v: SolveLSS returned no error", f.name, v)
			}
		}
	}
}

func TestSolveLSSInputErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, _ := measure.NewSet(5)
	_ = s.Add(0, 1, 5, 1)
	if _, err := SolveLSS(s, DefaultLSSConfig(0), nil); err == nil {
		t.Error("want error for nil rng")
	}
	tiny, _ := measure.NewSet(2)
	_ = tiny.Add(0, 1, 5, 1)
	if _, err := SolveLSS(tiny, DefaultLSSConfig(0), rng); err == nil {
		t.Error("want error for n < 3")
	}
	empty, _ := measure.NewSet(5)
	if _, err := SolveLSS(empty, DefaultLSSConfig(0), rng); err == nil {
		t.Error("want error for empty set")
	}
	badCfg := DefaultLSSConfig(0)
	badCfg.Step = 0
	if _, err := SolveLSS(s, badCfg, rng); err == nil {
		t.Error("want error for invalid config")
	}
}

// TestSolveLSSNonFiniteObjective: finite distances whose objective overflows
// — one 1e300 m distance among three nodes — make SolveLSS return an error
// naming the non-finite objective, where it used to return Error = +Inf
// with a nil error.
func TestSolveLSSNonFiniteObjective(t *testing.T) {
	s, _ := measure.NewSet(3)
	_ = s.Add(0, 1, 1e300, 1)
	_ = s.Add(1, 2, 5, 1)
	_ = s.Add(0, 2, 5, 1)
	res, err := SolveLSS(s, DefaultLSSConfig(0), rand.New(rand.NewSource(1)))
	if err == nil || !strings.Contains(err.Error(), "non-finite objective") {
		t.Fatalf("SolveLSS = %+v, %v; want a non-finite objective error", res, err)
	}
}

// TestLSSExactSquare: four nodes in a square with all six exact distances
// must be recovered to machine-ish precision (up to rigid motion).
func TestLSSExactSquare(t *testing.T) {
	truth := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}
	s, _ := measure.NewSet(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			_ = s.Add(i, j, truth[i].Dist(truth[j]), 1)
		}
	}
	cfg := DefaultLSSConfig(0)
	rng := rand.New(rand.NewSource(5))
	res, err := SolveLSS(s, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eval.Fit(res.Positions, truth)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgError > 0.01 {
		t.Errorf("avg error %.4f m on exact data, want ≈0", a.AvgError)
	}
	if res.Error > 1e-3 {
		t.Errorf("final stress %.6f, want ≈0", res.Error)
	}
}

// TestLSSNoisyCompleteGraph: a 4x4 grid with complete noisy measurements
// should localize to well under the noise scale per node.
func TestLSSNoisyCompleteGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dep, err := deploy.OffsetGrid(4, 4, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := measure.Generate(dep, 1000, 0.33, rng) // no cutoff: complete graph
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveLSS(s, DefaultLSSConfig(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eval.Fit(res.Positions, dep.Positions)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgError > 0.3 {
		t.Errorf("avg error %.3f m with complete noisy graph, want < 0.3", a.AvgError)
	}
}

// TestLSSSoftConstraintHelpsOnSparseData reproduces the paper's central
// ablation on *sparse* measurements (Figures 18 vs 19): with ~5 measured
// neighbors per node, LSS with the minimum-spacing soft constraint converges
// near truth while the unconstrained solver collapses into folds.
func TestLSSSoftConstraintHelpsOnSparseData(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dep := deploy.PaperGrid()
	dep.Positions = dep.Positions[:47]
	s, err := measure.Generate(dep, 22, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	measure.Sparsify(s, 247, rng) // the paper's 247 measured pairs
	if !s.Connected() {
		t.Skip("sparsified graph disconnected for this seed")
	}

	// Paper-faithful seeding (random-only) isolates the constraint's effect.
	cfgWith := DefaultLSSConfig(9.14)
	cfgWith.SeedMDSMap = false
	cfgWithout := DefaultLSSConfig(0)
	cfgWithout.SeedMDSMap = false
	resWith, err := SolveLSS(s, cfgWith, rand.New(rand.NewSource(19)))
	if err != nil {
		t.Fatal(err)
	}
	resWithout, err := SolveLSS(s, cfgWithout, rand.New(rand.NewSource(19)))
	if err != nil {
		t.Fatal(err)
	}

	aWith, err := eval.Fit(resWith.Positions, dep.Positions)
	if err != nil {
		t.Fatal(err)
	}
	aWithout, err := eval.Fit(resWithout.Positions, dep.Positions)
	if err != nil {
		t.Fatal(err)
	}

	if aWith.AvgError > 2.5 {
		t.Errorf("constrained avg error %.2f m, want ≤ 2.5 (paper: 2.2)", aWith.AvgError)
	}
	if aWithout.AvgError < 3*aWith.AvgError {
		t.Errorf("unconstrained (%.2f m) should be far worse than constrained (%.2f m) — paper: 16.6 vs 2.2",
			aWithout.AvgError, aWith.AvgError)
	}
}

// TestLSSFixedStepConstraintSpeedsConvergence reproduces the Figure 22/23
// phenomenon on the dense town: under the paper's literal fixed-step rule
// the soft constraint lets descent reach the global structure while the
// unconstrained objective stalls in a fold.
func TestLSSFixedStepConstraintSpeedsConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dep := deploy.Town(rng)
	s, err := measure.Generate(dep, 22, 0.33, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func(dmin float64) float64 {
		cfg := DefaultLSSConfig(dmin)
		cfg.Mode = StepFixed
		cfg.Step = 0.008
		cfg.Restarts = 4
		cfg.MaxIters = 3000
		cfg.SeedMDSMap = false // paper-faithful random seeding
		res, err := SolveLSS(s, cfg, rand.New(rand.NewSource(13)))
		if err != nil {
			t.Fatal(err)
		}
		a, err := eval.Fit(res.Positions, dep.Positions)
		if err != nil {
			t.Fatal(err)
		}
		return a.AvgError
	}
	with := run(9)
	without := run(0)
	if with > 1.0 {
		t.Errorf("fixed-step constrained avg error %.2f m, want ≤ 1 (paper: 0.55)", with)
	}
	if without < 3*with {
		t.Errorf("fixed-step unconstrained (%.2f m) should be far worse than constrained (%.2f m) — paper: 13.6 vs 0.55",
			without, with)
	}
}

// TestLSSWeightsDownweightBadMeasurement: an outlier distance with low
// weight must distort the solution less than the same outlier at full
// weight.
func TestLSSWeightsDownweightBadMeasurement(t *testing.T) {
	truth := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10), geom.Pt(5, 5)}
	build := func(outlierWeight float64) *measure.Set {
		s, _ := measure.NewSet(5)
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				d := truth[i].Dist(truth[j])
				w := 1.0
				if i == 0 && j == 4 {
					d += 6 // gross outlier on one measurement
					w = outlierWeight
				}
				_ = s.Add(i, j, d, w)
			}
		}
		return s
	}
	run := func(s *measure.Set) float64 {
		res, err := SolveLSS(s, DefaultLSSConfig(0), rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatal(err)
		}
		a, err := eval.Fit(res.Positions, truth)
		if err != nil {
			t.Fatal(err)
		}
		return a.AvgError
	}
	full := run(build(1))
	down := run(build(0.05))
	if down >= full {
		t.Errorf("downweighted outlier error %.3f not better than full-weight %.3f", down, full)
	}
}

// TestLSSHistoryMonotone: within the best descent trajectory the recorded
// objective must be non-increasing (the adaptive step never accepts an
// uphill move).
func TestLSSHistoryMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dep, _ := deploy.OffsetGrid(3, 3, 9, 10)
	s, err := measure.Generate(dep, 15, 0.33, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveLSS(s, DefaultLSSConfig(9), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 2 {
		t.Fatalf("history too short: %d", len(res.History))
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]+1e-9 {
			t.Fatalf("history increased at step %d: %v -> %v", i, res.History[i-1], res.History[i])
		}
	}
	if res.Iterations <= 0 {
		t.Error("no iterations recorded")
	}
}

// TestLSSDeterminism: identical seeds yield identical results.
func TestLSSDeterminism(t *testing.T) {
	dep, _ := deploy.OffsetGrid(3, 3, 9, 10)
	s, err := measure.Generate(dep, 15, 0.33, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := SolveLSS(s, DefaultLSSConfig(9), rand.New(rand.NewSource(29)))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveLSS(s, DefaultLSSConfig(9), rand.New(rand.NewSource(29)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Error != r2.Error {
		t.Errorf("errors differ: %v vs %v", r1.Error, r2.Error)
	}
	for i := range r1.Positions {
		if r1.Positions[i] != r2.Positions[i] {
			t.Fatalf("position %d differs", i)
		}
	}
}

// TestLSSUnconstrainedErrorIsSubsetOfTotal: E ≥ Ew always (soft terms are
// squares), per the paper's Figure 23 discussion.
func TestLSSUnconstrainedErrorIsSubsetOfTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dep, _ := deploy.OffsetGrid(3, 3, 9, 10)
	s, err := measure.Generate(dep, 15, 0.33, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveLSS(s, DefaultLSSConfig(9), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnconstrainedError > res.Error+1e-9 {
		t.Errorf("Ew=%v > E=%v — soft terms must be non-negative", res.UnconstrainedError, res.Error)
	}
}

// TestLSSScaleInvarianceOfGradientGuard: coincident initial points must not
// produce NaNs (division-by-zero guard).
func TestLSSCoincidentStartIsSafe(t *testing.T) {
	s, _ := measure.NewSet(3)
	_ = s.Add(0, 1, 5, 1)
	_ = s.Add(1, 2, 5, 1)
	_ = s.Add(0, 2, 5, 1)
	cfg := DefaultLSSConfig(2)
	cfg.InitSpread = 1e-12 // all points effectively coincident at start
	res, err := SolveLSS(s, cfg, rand.New(rand.NewSource(37)))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Positions {
		if !p.IsFinite() {
			t.Fatalf("position %d is not finite: %v", i, p)
		}
	}
	if math.IsNaN(res.Error) {
		t.Error("objective is NaN")
	}
}

// TestLSSTownAllocCeiling holds a warmed town solve at the full
// DefaultLSSConfig(9) budget to at most 7 heap allocations: the problem's
// tables, every descent workspace and the MDS-MAP seed come from the arena,
// so nothing is allocated per descent or per objective evaluation.
func TestLSSTownAllocCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	set, err := measure.Generate(deploy.Town(rng), 22, measure.GaussianNoise, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLSSConfig(9)
	ws := scratch.New()
	solve := func() {
		if _, err := SolveLSSIn(ws, set, cfg, rand.New(rand.NewSource(47))); err != nil {
			t.Fatal(err)
		}
		ws.Release()
	}
	// AllocsPerRun's own first call warms the arena.
	if allocs := testing.AllocsPerRun(2, solve); allocs > 7 {
		t.Errorf("warmed town solve made %v allocations, want ≤ 7", allocs)
	}
}
