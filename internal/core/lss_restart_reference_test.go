package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"resilientloc/internal/deploy"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/scratch"
)

// This file freezes SolveLSSIn's restart loop as it stood before seeded
// solves stopped restarting early: every solve ran all Restarts rounds. It
// runs the production kernel (lss_reference_test.go freezes that one), so
// a comparison here isolates the restart loop.

// restartMark is the state of a full-count solve after one of its descents.
type restartMark struct {
	iters   int
	bestErr float64
	best    []geom.Point
}

// fullRestartSolveLSS is the full-count restart loop. It returns the result
// and the state after each descent, in order: marks[d] is what a solve that
// stopped after its first d+1 descents would have returned. Inputs are
// assumed valid.
func fullRestartSolveLSS(ws *scratch.Arena, set *measure.Set, cfg LSSConfig, rng *rand.Rand) (*LSSResult, []restartMark) {
	n := set.N()
	prob := newLSSProblem(ws, set, cfg)

	spread := cfg.InitSpread
	if spread <= 0 {
		spread = prob.distanceScale() * math.Sqrt(float64(n))
	}
	perturb := 0.3 * prob.distanceScale()
	randomConfig := func(dst []geom.Point) {
		for i := range dst {
			dst[i] = geom.Pt(rng.Float64()*spread, rng.Float64()*spread)
		}
	}

	cur := ws.Points(n)
	randomConfig(cur)

	best := ws.Points(n)
	copy(best, cur)
	bestErr := prob.objective(best)
	var bestHistory []float64
	totalIters := 0
	histories := [2][]float64{ws.Float64Cap(cfg.MaxIters + 1), ws.Float64Cap(cfg.MaxIters + 1)}
	free := 0
	var marks []restartMark
	descendFrom := func(start []geom.Point) {
		final, history, iters, e := prob.descend(histories[free], start, cfg)
		totalIters += iters
		if e < bestErr {
			bestErr = e
			copy(best, final)
			bestHistory = history
			free = 1 - free
		}
		marks = append(marks, restartMark{totalIters, bestErr, slices.Clone(best)})
	}

	if cfg.SeedMDSMap && set.Connected() {
		if seed, err := SolveMDSMapIn(ws, set); err == nil {
			descendFrom(seed)
		}
	}

	for round := 0; round <= cfg.Restarts; round++ {
		switch {
		case round == 0:
			// descend from the initial random configuration
		case round%2 == 1:
			for i := range cur {
				cur[i] = geom.Pt(
					best[i].X+rng.NormFloat64()*perturb,
					best[i].Y+rng.NormFloat64()*perturb,
				)
			}
		default:
			randomConfig(cur)
		}
		descendFrom(cur)
	}

	return &LSSResult{
		Positions:          best,
		Error:              bestErr,
		UnconstrainedError: prob.weightedStress(best, prob.nextDs, math.Inf(1)),
		Iterations:         totalIters,
		History:            bestHistory,
	}, marks
}

// townLSSSet is the town scenario's measurement set at seed: a town
// deployment and Gaussian-noise distances within 22 m, both from one rng.
func townLSSSet(t *testing.T, seed int64) *measure.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	set, err := measure.Generate(deploy.Town(rng), 22, measure.GaussianNoise, rng)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// withoutNode copies set minus every measurement touching node, leaving
// the node isolated and the set disconnected.
func withoutNode(t *testing.T, set *measure.Set, node int) *measure.Set {
	t.Helper()
	out, err := measure.NewSet(set.N())
	if err != nil {
		t.Fatal(err)
	}
	for m := range set.Measurements() {
		if m.Pair.Lo != node && m.Pair.Hi != node {
			if err := out.Add(m.Pair.Lo, m.Pair.Hi, m.Distance, m.Weight); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestLSSRandomOnlyRestartsIdentical: a solve with no MDS-MAP seed runs the
// paper's full restart count however little its restarts gain, so it stays
// bit-identical to the full-count loop in positions, Error, Iterations and
// History, and it leaves its rng where that loop does. That covers SeedMDSMap off in adaptive and fixed stepping, with
// the soft constraint on and off, and SeedMDSMap on over a disconnected
// set, where the seed is skipped. Restarts is cut to keep the test quick
// but stays above seededPlateau, so an early stop would show.
func TestLSSRandomOnlyRestartsIdentical(t *testing.T) {
	configs := []struct {
		name    string
		cfg     LSSConfig
		isolate bool
	}{
		{"adaptive", unseeded(DefaultLSSConfig(9)), false},
		{"adaptive-dmin0", unseeded(DefaultLSSConfig(0)), false},
		{"fixed", func() LSSConfig {
			c := unseeded(DefaultLSSConfig(9))
			c.Mode = StepFixed
			c.Step = 0.002
			c.MaxIters = 300
			return c
		}(), false},
		{"seeded-disconnected", DefaultLSSConfig(9), true},
	}
	seeds := []int64{1, 2, 3, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	ws := scratch.New()
	for _, tc := range configs {
		for _, seed := range seeds {
			set := townLSSSet(t, seed)
			if tc.isolate {
				set = withoutNode(t, set, 0)
				if set.Connected() {
					t.Fatal("set with an isolated node reads as connected")
				}
			}
			cfg := tc.cfg
			cfg.Restarts = seededPlateau + 3
			wantRNG, gotRNG := rand.New(rand.NewSource(seed+100)), rand.New(rand.NewSource(seed+100))
			want, _ := fullRestartSolveLSS(nil, set, cfg, wantRNG)
			got, err := SolveLSSIn(ws, set, cfg, gotRNG)
			if err != nil {
				t.Fatal(err)
			}
			if msg := lssResultDiff(got, want); msg != "" {
				t.Errorf("%s seed %d: %s", tc.name, seed, msg)
			}
			if gotRNG.Int63() != wantRNG.Int63() {
				t.Errorf("%s seed %d: the solve left its rng elsewhere than the full-count loop", tc.name, seed)
			}
			ws.Release()
		}
	}
}

func unseeded(c LSSConfig) LSSConfig {
	c.SeedMDSMap = false
	return c
}

// TestLSSSeededStopsNearFullBudget: a seeded town solve at its default
// budget runs a prefix of the full-count loop's descents and returns
// exactly what that loop held after them, and its objective is within 1e-9
// relative of the full budget's, with the soft constraint on and off. At
// least one solve must actually stop early.
func TestLSSSeededStopsNearFullBudget(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 4
	}
	ws := scratch.New()
	stopped := 0
	for _, dmin := range []float64{9, 0} {
		cfg := DefaultLSSConfig(dmin)
		for seed := int64(1); seed <= int64(seeds); seed++ {
			set := townLSSSet(t, seed)
			full, marks := fullRestartSolveLSS(nil, set, cfg, rand.New(rand.NewSource(seed+100)))
			got, err := SolveLSSIn(ws, set, cfg, rand.New(rand.NewSource(seed+100)))
			if err != nil {
				t.Fatal(err)
			}
			d := slices.IndexFunc(marks, func(m restartMark) bool { return m.iters == got.Iterations })
			if d < 0 {
				t.Fatalf("dmin %g seed %d: %d steps is not a whole number of the full loop's descents",
					dmin, seed, got.Iterations)
			}
			if d < len(marks)-1 {
				stopped++
			}
			if math.Float64bits(got.Error) != math.Float64bits(marks[d].bestErr) {
				t.Errorf("dmin %g seed %d: E %v after %d descents, full loop held %v",
					dmin, seed, got.Error, d+1, marks[d].bestErr)
			}
			if !slices.Equal(got.Positions, marks[d].best) {
				t.Errorf("dmin %g seed %d: positions differ from the full loop's best after %d descents",
					dmin, seed, d+1)
			}
			if gap := (got.Error - full.Error) / full.Error; !(gap <= 1e-9) {
				t.Errorf("dmin %g seed %d: E %v is %.3g relative above the full budget's %v",
					dmin, seed, got.Error, gap, full.Error)
			}
			ws.Release()
		}
	}
	if stopped == 0 {
		t.Error("no seeded solve stopped before its last restart")
	}
}
