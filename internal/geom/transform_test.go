package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randTransform draws a random rigid transform with bounded translation.
func randTransform(rng *rand.Rand) Transform {
	return Transform{
		Theta: rng.Float64()*2*math.Pi - math.Pi,
		Tx:    rng.Float64()*200 - 100,
		Ty:    rng.Float64()*200 - 100,
		Flip:  rng.Intn(2) == 1,
	}
}

func randPoint(rng *rand.Rand) Point {
	return Pt(rng.Float64()*100-50, rng.Float64()*100-50)
}

func TestTransformIdentity(t *testing.T) {
	var id Transform
	p := Pt(3.5, -2.25)
	if got := id.Apply(p); !pointsAlmostEq(got, p, eps) {
		t.Errorf("zero Transform.Apply = %v, want %v", got, p)
	}
}

func TestTransformBasics(t *testing.T) {
	tests := []struct {
		name string
		tr   Transform
		in   Point
		want Point
	}{
		{"translation", Transform{Tx: 2, Ty: 3}, Pt(1, 1), Pt(3, 4)},
		{"rotation 90", Transform{Theta: math.Pi / 2}, Pt(1, 0), Pt(0, 1)},
		{"rotation -90", Transform{Theta: -math.Pi / 2}, Pt(1, 0), Pt(0, -1)},
		{"flip only", Transform{Flip: true}, Pt(1, 2), Pt(1, -2)},
		{"flip then rotate 90", Transform{Theta: math.Pi / 2, Flip: true}, Pt(1, 2), Pt(2, 1)},
		{"rotate+translate", Transform{Theta: math.Pi, Tx: 1, Ty: 1}, Pt(1, 0), Pt(0, 1)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.tr.Apply(tc.in); !pointsAlmostEq(got, tc.want, eps) {
				t.Errorf("Apply(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestTransformIsIsometry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		tr := randTransform(rng)
		p, q := randPoint(rng), randPoint(rng)
		before := p.Dist(q)
		after := tr.Apply(p).Dist(tr.Apply(q))
		if !almostEq(before, after, 1e-9*(1+before)) {
			t.Fatalf("transform %v not an isometry: %v vs %v", tr, before, after)
		}
	}
}

func TestFitRigidRecoversExactTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		tr := randTransform(rng)
		n := 3 + rng.Intn(8)
		src := make([]Point, n)
		dst := make([]Point, n)
		for j := range src {
			src[j] = randPoint(rng)
			dst[j] = tr.Apply(src[j])
		}
		got, sse, err := FitRigid(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if sse > 1e-12*float64(n) {
			t.Fatalf("residual %g too large for exact recovery of %v", sse, tr)
		}
		// Check by action rather than parameter equality (θ and flip can
		// combine into equivalent parameterizations only via action).
		for j := range src {
			if !pointsAlmostEq(got.Apply(src[j]), dst[j], 1e-6) {
				t.Fatalf("fitted transform does not map src to dst: %v vs %v",
					got.Apply(src[j]), dst[j])
			}
		}
	}
}

func TestFitRigidRecoversReflection(t *testing.T) {
	tr := Transform{Theta: 0.7, Tx: 5, Ty: -3, Flip: true}
	src := []Point{Pt(0, 0), Pt(1, 0), Pt(0, 1), Pt(2, 3)}
	dst := tr.ApplyAll(src)
	got, sse, err := FitRigid(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Flip {
		t.Error("reflection not detected")
	}
	if sse > 1e-12 {
		t.Errorf("residual %g, want ~0", sse)
	}
}

func TestFitRigidNoisyIsReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := Transform{Theta: 1.1, Tx: 10, Ty: 20}
	n := 30
	src := make([]Point, n)
	dst := make([]Point, n)
	for j := range src {
		src[j] = randPoint(rng)
		d := tr.Apply(src[j])
		dst[j] = d.Add(Pt(rng.NormFloat64()*0.1, rng.NormFloat64()*0.1))
	}
	got, sse, err := FitRigid(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Expected residual ~ n * 2 * 0.01; allow generous headroom.
	if sse > float64(n)*0.1 {
		t.Errorf("noisy fit residual %g too large", sse)
	}
	if math.Abs(got.Theta-tr.Theta) > 0.05 {
		t.Errorf("recovered θ=%v, want ≈%v", got.Theta, tr.Theta)
	}
}

// TestFitRigidMatchesGridSearch cross-checks the closed-form covariance
// solution against brute-force search over the rotation angle, validating the
// paper's normal-equation derivation.
func TestFitRigidMatchesGridSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(5)
		src := make([]Point, n)
		dst := make([]Point, n)
		for j := range src {
			src[j] = randPoint(rng)
			dst[j] = randPoint(rng) // unrelated: a genuinely hard fit
		}
		got, sse, err := FitRigid(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		_ = got
		best := math.Inf(1)
		mu, mx := Centroid(src), Centroid(dst)
		for _, flip := range []bool{false, true} {
			for k := 0; k < 3600; k++ {
				theta := float64(k) / 3600 * 2 * math.Pi
				lin := Transform{Theta: theta, Flip: flip}
				l := lin.ApplyVector(mu)
				cand := Transform{Theta: theta, Tx: mx.X - l.X, Ty: mx.Y - l.Y, Flip: flip}
				var s float64
				for j := range src {
					s += cand.Apply(src[j]).DistSq(dst[j])
				}
				if s < best {
					best = s
				}
			}
		}
		if sse > best+1e-6*(1+best) {
			t.Fatalf("closed form sse %g worse than grid search %g", sse, best)
		}
	}
}

func TestFitRigidErrors(t *testing.T) {
	if _, _, err := FitRigid([]Point{Pt(0, 0)}, []Point{Pt(0, 0), Pt(1, 1)}); err == nil {
		t.Error("want error on length mismatch")
	}
	if _, _, err := FitRigid([]Point{Pt(0, 0)}, []Point{Pt(0, 0)}); err == nil {
		t.Error("want error on single pair")
	}
}
