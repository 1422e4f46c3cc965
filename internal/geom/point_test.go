package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func pointsAlmostEq(a, b Point, tol float64) bool {
	return almostEq(a.X, b.X, tol) && almostEq(a.Y, b.Y, tol)
}

func TestPointArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Point
		want Point
	}{
		{"add", Pt(1, 2).Add(Pt(3, -4)), Pt(4, -2)},
		{"sub", Pt(1, 2).Sub(Pt(3, -4)), Pt(-2, 6)},
		{"scale", Pt(1, -2).Scale(2.5), Pt(2.5, -5)},
		{"perp", Pt(1, 0).Perp(), Pt(0, 1)},
		{"rotate 90", Transform{Theta: math.Pi / 2}.Apply(Pt(1, 0)), Pt(0, 1)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if !pointsAlmostEq(tc.got, tc.want, eps) {
				t.Errorf("got %v, want %v", tc.got, tc.want)
			}
		})
	}
}

func TestPointScalars(t *testing.T) {
	if got := Pt(3, 4).Norm(); !almostEq(got, 5, eps) {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := Pt(3, 4).NormSq(); !almostEq(got, 25, eps) {
		t.Errorf("NormSq = %v, want 25", got)
	}
	if got := Pt(1, 1).Dist(Pt(4, 5)); !almostEq(got, 5, eps) {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := Pt(1, 1).DistSq(Pt(4, 5)); !almostEq(got, 25, eps) {
		t.Errorf("DistSq = %v, want 25", got)
	}
	if got := Pt(1, 2).Dot(Pt(3, 4)); !almostEq(got, 11, eps) {
		t.Errorf("Dot = %v, want 11", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !Pt(1, 2).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	for _, p := range []Point{
		{math.NaN(), 0}, {0, math.NaN()},
		{math.Inf(1), 0}, {0, math.Inf(-1)},
	} {
		if p.IsFinite() {
			t.Errorf("%v reported finite", p)
		}
	}
}

func TestCentroid(t *testing.T) {
	if got := Centroid(nil); got != (Point{}) {
		t.Errorf("Centroid(nil) = %v, want origin", got)
	}
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if got := Centroid(pts); !pointsAlmostEq(got, Pt(1, 1), eps) {
		t.Errorf("Centroid = %v, want (1,1)", got)
	}
}

func TestRotatePreservesNorm(t *testing.T) {
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(1))}
	f := func(x, y, theta float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		x = math.Mod(x, 1e6)
		y = math.Mod(y, 1e6)
		p := Pt(x, y)
		q := Transform{Theta: theta}.Apply(p)
		return almostEq(p.Norm(), q.Norm(), 1e-6*(1+p.Norm()))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
