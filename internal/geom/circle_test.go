package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// intersect returns the intersection points Intersect2 reports, as a slice.
func intersect(a, b Circle, tol float64) []Point {
	pts, k := a.Intersect2(b, tol)
	return pts[:k]
}

func TestCircleIntersectTwoPoints(t *testing.T) {
	a := Circle{Center: Pt(0, 0), R: 5}
	b := Circle{Center: Pt(8, 0), R: 5}
	pts := intersect(a, b, 0)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Y < pts[j].Y })
	if !pointsAlmostEq(pts[0], Pt(4, -3), 1e-9) || !pointsAlmostEq(pts[1], Pt(4, 3), 1e-9) {
		t.Errorf("points = %v, want (4,±3)", pts)
	}
}

func TestCircleIntersectTangent(t *testing.T) {
	a := Circle{Center: Pt(0, 0), R: 2}
	b := Circle{Center: Pt(4, 0), R: 2}
	pts := intersect(a, b, 1e-9)
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1 (external tangency)", len(pts))
	}
	if !pointsAlmostEq(pts[0], Pt(2, 0), 1e-9) {
		t.Errorf("tangent point = %v, want (2,0)", pts[0])
	}

	// Internal tangency.
	c := Circle{Center: Pt(0, 0), R: 4}
	d := Circle{Center: Pt(2, 0), R: 2}
	pts = intersect(c, d, 1e-9)
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1 (internal tangency)", len(pts))
	}
	if !pointsAlmostEq(pts[0], Pt(4, 0), 1e-9) {
		t.Errorf("tangent point = %v, want (4,0)", pts[0])
	}
}

func TestCircleIntersectNone(t *testing.T) {
	tests := []struct {
		name string
		a, b Circle
	}{
		{"disjoint", Circle{Pt(0, 0), 1}, Circle{Pt(10, 0), 1}},
		{"nested", Circle{Pt(0, 0), 10}, Circle{Pt(1, 0), 1}},
		{"concentric", Circle{Pt(0, 0), 2}, Circle{Pt(0, 0), 3}},
		{"coincident", Circle{Pt(0, 0), 2}, Circle{Pt(0, 0), 2}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if pts := intersect(tc.a, tc.b, 0); len(pts) != 0 {
				t.Errorf("got %d points, want 0", len(pts))
			}
		})
	}
}

// TestCircleIntersectPointsOnBothCircles property-checks that every returned
// intersection point actually lies on both circles.
func TestCircleIntersectPointsOnBothCircles(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 500; i++ {
		a := Circle{Center: randPoint(rng), R: rng.Float64()*20 + 0.1}
		b := Circle{Center: randPoint(rng), R: rng.Float64()*20 + 0.1}
		for _, p := range intersect(a, b, 0) {
			da := math.Abs(p.Dist(a.Center) - a.R)
			db := math.Abs(p.Dist(b.Center) - b.R)
			if da > 1e-6 || db > 1e-6 {
				t.Fatalf("intersection point %v off circles by %g, %g (a=%v b=%v)", p, da, db, a, b)
			}
		}
	}
}
