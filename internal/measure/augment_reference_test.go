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

// refAugment freezes Augment as it stood before its input checks and its
// squared-distance cutoff: math.Hypot for every pair. Inputs are assumed
// valid.
func refAugment(s *Set, dep *deploy.Deployment, maxRange, sigma float64, count int, rng *rand.Rand) (int, error) {
	if dep.N() != s.n {
		return 0, fmt.Errorf("measure: Augment: deployment has %d nodes, set has %d", dep.N(), s.n)
	}
	var missing []Pair
	for i := 0; i < dep.N(); i++ {
		for j := i + 1; j < dep.N(); j++ {
			if dep.Positions[i].Dist(dep.Positions[j]) > maxRange {
				continue
			}
			if _, ok := s.Get(i, j); !ok {
				missing = append(missing, MkPair(i, j))
			}
		}
	}
	rng.Shuffle(len(missing), func(a, b int) { missing[a], missing[b] = missing[b], missing[a] })
	if count > len(missing) {
		count = len(missing)
	}
	for _, p := range missing[:count] {
		d := dep.Positions[p.Lo].Dist(dep.Positions[p.Hi])
		meas := d + rng.NormFloat64()*sigma
		if meas <= 0.01 {
			meas = 0.01
		}
		if err := s.Add(p.Lo, p.Hi, meas, 1); err != nil {
			return 0, err
		}
	}
	return count, nil
}

// seedSet measures every third pair of dep at distance 1, in ascending
// order, so Augment finds some pairs present and some missing.
func seedSet(t *testing.T, dep *deploy.Deployment) *Set {
	t.Helper()
	s := mustSet(t, dep.N())
	k := 0
	for i := 0; i < dep.N(); i++ {
		for j := i + 1; j < dep.N(); j++ {
			if k%3 == 0 {
				if err := s.Add(i, j, 1, 1); err != nil {
					t.Fatal(err)
				}
			}
			k++
		}
	}
	return s
}

// TestAugmentMatchesReferenceIdentical holds Augment to the frozen
// Hypot-every-pair form on valid inputs: the same count and error, the
// same measurements bit for bit and in insertion order (so the same
// missing list, shuffled the same way), and the random stream left at the
// same draw. The deployments and ranges are TestGenerateMatchesReference-
// Identical's: pairs at maxRange and one ulp either side, coincident nodes,
// squares that overflow, non-finite coordinates, and ranges from 0 to +Inf.
func TestAugmentMatchesReferenceIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
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
	town := deploy.Town(rng)
	for _, dep := range []*deploy.Deployment{coincident, huge, deploy.PaperGrid(), town} {
		for _, r := range []float64{0, 1e-160, 1, 10, 22, 1e160, math.Inf(1)} {
			ins = append(ins, input{dep, r})
		}
	}
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
			for _, count := range []int{0, 1, 7, 1 << 20} {
				name := fmt.Sprintf("%d/%s/maxRange=%g/sigma=%g/count=%d", k, in.dep.Name, in.maxRange, sigma, count)
				seed := int64(200 + k)
				gotRNG, wantRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got, want := seedSet(t, in.dep), seedSet(t, in.dep)
				gotN, gotErr := Augment(got, in.dep, in.maxRange, sigma, count, gotRNG)
				wantN, wantErr := refAugment(want, in.dep, in.maxRange, sigma, count, wantRNG)
				if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: added %d, error %v; reference %d, %v", name, gotN, gotErr, wantN, wantErr)
				}
				sameGenerate(t, name, got, want)
				if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
					t.Fatalf("%s: next draw %d, reference %d", name, g, w)
				}
			}
		}
	}
}

// TestAugmentRejectsBadInputs: on the paper grid's 12 m set, a NaN or
// negative maxRange, a NaN, infinite or negative sigma and a negative count
// fail with their named errors before any draw or change to the set;
// +Inf maxRange, zero sigma and zero count are valid.
func TestAugmentRejectsBadInputs(t *testing.T) {
	dep := deploy.PaperGrid()
	base, err := Generate(dep, 12, GaussianNoise, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if base.Len() != 120 {
		t.Fatalf("12 m set has %d pairs, want 120", base.Len())
	}
	cases := []struct {
		maxRange, sigma float64
		count           int
		want            error
	}{
		{math.NaN(), GaussianNoise, 5, ErrMaxRange},
		{-1, GaussianNoise, 5, ErrMaxRange},
		{math.Inf(-1), GaussianNoise, 5, ErrMaxRange},
		{22, math.NaN(), 5, ErrSigma},
		{22, math.Inf(1), 5, ErrSigma},
		{22, -0.1, 5, ErrSigma},
		{22, GaussianNoise, -1, ErrCount},
		{math.NaN(), math.NaN(), -1, ErrMaxRange},
		{22, math.NaN(), -1, ErrSigma},
		{math.Inf(1), GaussianNoise, 5, nil},
		{22, 0, 5, nil},
		{22, GaussianNoise, 0, nil},
	}
	for _, c := range cases {
		name := fmt.Sprintf("Augment(maxRange %v, sigma %v, count %d)", c.maxRange, c.sigma, c.count)
		s := rebuilt(t, base)
		rng := rand.New(rand.NewSource(5))
		added, err := Augment(s, dep, c.maxRange, c.sigma, c.count, rng)
		if !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
			t.Errorf("%s: error %v, want %v", name, err, c.want)
			continue
		}
		if err != nil {
			if added != 0 {
				t.Errorf("%s: reported %d added with an error", name, added)
			}
			sameGenerate(t, name, s, base)
			if got, want := rng.Int63(), rand.New(rand.NewSource(5)).Int63(); got != want {
				t.Errorf("%s: drew from rng before failing", name)
			}
		} else if s.Len() != base.Len()+added {
			t.Errorf("%s: added %d, set grew by %d", name, added, s.Len()-base.Len())
		}
	}
}
