package measure

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"resilientloc/internal/deploy"
	"resilientloc/internal/geom"
)

// refGenerate freezes Generate as it stood before its squared-distance
// cutoff: math.Hypot for every pair. Inputs are assumed valid.
func refGenerate(dep *deploy.Deployment, maxRange, sigma float64, rng *rand.Rand) (*Set, error) {
	s, err := NewSet(dep.N())
	if err != nil {
		return nil, err
	}
	for i := 0; i < dep.N(); i++ {
		for j := i + 1; j < dep.N(); j++ {
			d := dep.Positions[i].Dist(dep.Positions[j])
			if d > maxRange {
				continue
			}
			meas := d + rng.NormFloat64()*sigma
			if meas <= 0.01 {
				meas = 0.01
			}
			if err := s.Add(i, j, meas, 1); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// ringDeployment places nodes around the origin at distance r: on both
// axes exactly at r and one ulp either side, and in random directions with
// each coordinate nudged by up to two ulps, so that pair distances fall on,
// just inside and just outside maxRange r.
func ringDeployment(r float64, rng *rand.Rand) *deploy.Deployment {
	dep := &deploy.Deployment{Name: fmt.Sprintf("ring-%g", r)}
	dep.Positions = append(dep.Positions, geom.Pt(0, 0))
	for _, v := range []float64{math.Nextafter(r, 0), r, math.Nextafter(r, math.Inf(1))} {
		dep.Positions = append(dep.Positions, geom.Pt(v, 0), geom.Pt(0, -v))
	}
	nudge := func(v float64) float64 {
		dir := math.Inf(1 - 2*rng.Intn(2))
		for k := rng.Intn(3); k > 0; k-- {
			v = math.Nextafter(v, dir)
		}
		return v
	}
	for k := 0; k < 24; k++ {
		theta := rng.Float64() * 2 * math.Pi
		dep.Positions = append(dep.Positions, geom.Pt(nudge(r*math.Cos(theta)), nudge(r*math.Sin(theta))))
	}
	return dep
}

// sameGenerate fails unless got and want hold the same measurements, bit
// for bit and in the same insertion order.
func sameGenerate(t *testing.T, name string, got, want *Set) {
	t.Helper()
	g, w := got.All(), want.All()
	if len(g) != len(w) {
		t.Fatalf("%s: %d pairs, reference %d", name, len(g), len(w))
	}
	for k := range w {
		if g[k].Pair != w[k].Pair ||
			math.Float64bits(g[k].Distance) != math.Float64bits(w[k].Distance) ||
			math.Float64bits(g[k].Weight) != math.Float64bits(w[k].Weight) {
			t.Fatalf("%s: measurement %d is %+v, reference %+v", name, k, g[k], w[k])
		}
	}
}

// TestGenerateMatchesReferenceIdentical holds Generate to the frozen
// Hypot-every-pair form: the same pairs, distance bits, weights and
// insertion order, the same error, and the random stream left at the same
// draw. The deployments put pairs exactly at maxRange and one ulp either
// side, coincident nodes, coordinates near 1e200 whose squares overflow,
// and non-finite coordinates; the ranges include 0, 1e-160, 1e160 and +Inf.
func TestGenerateMatchesReferenceIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type input struct {
		dep      *deploy.Deployment
		maxRange float64
	}
	var ins []input
	for _, r := range []float64{0, 1e-160, 1e-155, 0.5, 1, 22, 1e135, 1e160} {
		ins = append(ins, input{ringDeployment(r, rng), r})
	}
	coincident := &deploy.Deployment{Name: "coincident", Positions: []geom.Point{
		geom.Pt(3, 4), geom.Pt(3, 4), geom.Pt(3, 4), geom.Pt(0, 0), geom.Pt(0, 0),
		geom.Pt(5e-324, 0), geom.Pt(math.Copysign(0, -1), 0), geom.Pt(6, 8),
	}}
	huge := &deploy.Deployment{Name: "huge", Positions: []geom.Point{
		geom.Pt(1e200, 0), geom.Pt(-1e200, 0), geom.Pt(0, 1e200), geom.Pt(1e200, 1e200),
		geom.Pt(1e200, 10), geom.Pt(math.Nextafter(1e200, 0), 3), geom.Pt(-1e200, -1e200),
		geom.Pt(math.MaxFloat64, 0), geom.Pt(-math.MaxFloat64, 0), geom.Pt(0, 0),
	}}
	grid, err := deploy.OffsetGrid(14, 14, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	town := deploy.Town(rng)
	for _, dep := range []*deploy.Deployment{coincident, huge, grid, town} {
		for _, r := range []float64{0, 1e-160, 1, 10, 22, 1e160, math.Inf(1)} {
			ins = append(ins, input{dep, r})
		}
	}
	// Non-finite coordinates: an in-range NaN or infinite distance fails
	// in Add, in both forms alike.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		dep := &deploy.Deployment{Name: fmt.Sprintf("nonfinite-%v", v), Positions: []geom.Point{
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(v, 0), geom.Pt(2, v),
		}}
		for _, r := range []float64{1, 22, math.Inf(1)} {
			ins = append(ins, input{dep, r})
		}
	}
	for k, in := range ins {
		for _, sigma := range []float64{0, GaussianNoise} {
			name := fmt.Sprintf("%d/%s/maxRange=%g/sigma=%g", k, in.dep.Name, in.maxRange, sigma)
			seed := int64(100 + k)
			gotRNG, wantRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, gotErr := Generate(in.dep, in.maxRange, sigma, gotRNG)
			want, wantErr := refGenerate(in.dep, in.maxRange, sigma, wantRNG)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
			}
			if wantErr == nil {
				sameGenerate(t, name, got, want)
			}
			if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
				t.Fatalf("%s: next draw %d, reference %d", name, g, w)
			}
		}
	}
}

// TestGenerateRejectsBadInputs: a NaN or negative maxRange and a NaN,
// infinite or negative sigma fail up front with their named errors, before
// any draw; +Inf maxRange and zero sigma are valid.
func TestGenerateRejectsBadInputs(t *testing.T) {
	dep, err := deploy.OffsetGrid(4, 4, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		maxRange, sigma float64
		want            error
	}{
		{math.NaN(), GaussianNoise, ErrMaxRange},
		{-1, GaussianNoise, ErrMaxRange},
		{math.Inf(-1), GaussianNoise, ErrMaxRange},
		{22, math.NaN(), ErrSigma},
		{22, math.Inf(1), ErrSigma},
		{22, math.Inf(-1), ErrSigma},
		{22, -0.1, ErrSigma},
		{math.NaN(), math.NaN(), ErrMaxRange},
		{math.Inf(1), GaussianNoise, nil},
		{22, 0, nil},
		{0, 0, nil},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(5))
		s, err := Generate(dep, c.maxRange, c.sigma, rng)
		if !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
			t.Errorf("Generate(maxRange %v, sigma %v): error %v, want %v", c.maxRange, c.sigma, err, c.want)
			continue
		}
		if err != nil {
			if s != nil {
				t.Errorf("Generate(maxRange %v, sigma %v): non-nil set with error", c.maxRange, c.sigma)
			}
			if got, want := rng.Int63(), rand.New(rand.NewSource(5)).Int63(); got != want {
				t.Errorf("Generate(maxRange %v, sigma %v): drew from rng before failing", c.maxRange, c.sigma)
			}
		}
	}
	s, err := Generate(dep, math.Inf(1), 0, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 120 {
		t.Errorf("Generate(+Inf, 0) on 16 nodes measured %d pairs, want all 120", s.Len())
	}
}
