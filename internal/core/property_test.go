package core

import (
	"math"
	"math/rand"
	"testing"

	"resilientloc/internal/deploy"
	"resilientloc/internal/eval"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
)

// Property: the LSS objective is invariant under rigid motion of the
// configuration (distances are all that matter), so the reported final
// objective must match a recomputation after transforming the output.
func TestPropertyLSSObjectiveRigidInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dep, err := deploy.OffsetGrid(3, 3, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	set, err := measure.Generate(dep, 20, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLSSConfig(9)
	prob := newLSSProblem(nil, set, cfg)
	for trial := 0; trial < 50; trial++ {
		pts := make([]geom.Point, dep.N())
		for i := range pts {
			pts[i] = geom.Pt(rng.NormFloat64()*30, rng.NormFloat64()*30)
		}
		e := prob.objective(pts)
		tr := geom.Transform{
			Theta: rng.Float64() * 2 * math.Pi,
			Tx:    rng.NormFloat64() * 100,
			Ty:    rng.NormFloat64() * 100,
			Flip:  rng.Intn(2) == 1,
		}
		e2 := prob.objective(tr.ApplyAll(pts))
		if math.Abs(e-e2) > 1e-6*(1+e) {
			t.Fatalf("objective not rigid-invariant: %g vs %g", e, e2)
		}
	}
}

// Property: the objective is non-negative and zero exactly on a
// configuration realizing all measured distances with no constraint
// violations.
func TestPropertyLSSObjectiveNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	dep, err := deploy.OffsetGrid(3, 3, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Exact distances: the ground-truth configuration has zero stress.
	set, err := measure.Generate(dep, 1000, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	prob := newLSSProblem(nil, set, DefaultLSSConfig(8))
	if e := prob.objective(dep.Positions); e > 1e-9 {
		t.Errorf("objective at truth = %g, want 0", e)
	}
	for trial := 0; trial < 50; trial++ {
		pts := make([]geom.Point, dep.N())
		for i := range pts {
			pts[i] = geom.Pt(rng.NormFloat64()*30, rng.NormFloat64()*30)
		}
		if e := prob.objective(pts); e < 0 {
			t.Fatalf("negative objective %g", e)
		}
	}
}

// Property: the analytic gradient matches finite differences at random
// configurations (with and without the soft constraint).
func TestPropertyLSSGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	dep, err := deploy.OffsetGrid(2, 3, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	set, err := measure.Generate(dep, 15, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, dmin := range []float64{0, 9} {
		prob := newLSSProblem(nil, set, DefaultLSSConfig(dmin))
		n := dep.N()
		for trial := 0; trial < 20; trial++ {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt(rng.NormFloat64()*20, rng.NormFloat64()*20)
			}
			ds := make([]float64, len(prob.lo))
			prob.eval(pts, ds, math.Inf(1))
			grad := make([]float64, 2*n)
			prob.gradient(pts, ds, grad)
			const h = 1e-6
			for i := 0; i < n; i++ {
				for _, axis := range []int{0, 1} {
					bump := func(delta float64) float64 {
						q := append([]geom.Point(nil), pts...)
						if axis == 0 {
							q[i] = geom.Pt(pts[i].X+delta, pts[i].Y)
						} else {
							q[i] = geom.Pt(pts[i].X, pts[i].Y+delta)
						}
						return prob.objective(q)
					}
					fd := (bump(h) - bump(-h)) / (2 * h)
					got := grad[i]
					if axis == 1 {
						got = grad[n+i]
					}
					if math.Abs(fd-got) > 1e-3*(1+math.Abs(fd)) {
						t.Fatalf("dmin=%v node %d axis %d: grad %g vs FD %g", dmin, i, axis, got, fd)
					}
				}
			}
		}
	}
}

// Property: eval.Fit error is invariant when the estimates are pre-mangled
// by an arbitrary rigid transform (alignment must undo it).
func TestPropertyFitUndoesRigidMangling(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	truth := make([]geom.Point, 12)
	for i := range truth {
		truth[i] = geom.Pt(rng.NormFloat64()*40, rng.NormFloat64()*40)
	}
	est := make([]geom.Point, len(truth))
	for i := range est {
		est[i] = truth[i].Add(geom.Pt(rng.NormFloat64()*0.5, rng.NormFloat64()*0.5))
	}
	base, err := eval.Fit(est, truth)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		tr := geom.Transform{
			Theta: rng.Float64() * 2 * math.Pi,
			Tx:    rng.NormFloat64() * 200,
			Ty:    rng.NormFloat64() * 200,
			Flip:  rng.Intn(2) == 1,
		}
		mangled, err := eval.Fit(tr.ApplyAll(est), truth)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mangled.AvgError-base.AvgError) > 1e-6*(1+base.AvgError) {
			t.Fatalf("trial %d: avg error changed under rigid mangling: %g vs %g",
				trial, mangled.AvgError, base.AvgError)
		}
	}
}
