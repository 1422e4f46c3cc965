package geom

import "math"

// Circle is a circle in the plane: the locus of points at distance R from
// Center. Range circles around anchors are the geometric primitive of the
// multilateration intersection consistency check (paper Section 4.1.2).
type Circle struct {
	Center Point
	R      float64
}

// Contains reports whether p lies inside or on the circle.
func (c Circle) Contains(p Point) bool {
	return c.Center.DistSq(p) <= c.R*c.R
}

// Intersect computes the intersection points of two circles.
// It returns:
//   - 0 points when the circles are disjoint (too far apart or nested) or
//     coincident,
//   - 1 point when they are tangent (within tol of tangency),
//   - 2 points otherwise.
//
// tol is an absolute tolerance in meters on the tangency test; pass 0 for
// exact arithmetic behaviour. Intersect allocates its result; Intersect2 is
// the allocation-free form.
func (c Circle) Intersect(o Circle, tol float64) []Point {
	pts, k := c.Intersect2(o, tol)
	if k == 0 {
		return nil
	}
	return append([]Point(nil), pts[:k]...)
}

// Intersect2 is Intersect without the allocation: the intersection points
// are pts[:k], in the order Intersect returns them.
func (c Circle) Intersect2(o Circle, tol float64) (pts [2]Point, k int) {
	d := c.Center.Dist(o.Center)
	if d == 0 {
		return pts, 0 // concentric: coincident or nested, no discrete points
	}
	// No intersection when separated or nested beyond tolerance.
	if d > c.R+o.R+tol || d < math.Abs(c.R-o.R)-tol {
		return pts, 0
	}
	// Distance from c.Center to the radical line along the center line.
	a := (d*d + c.R*c.R - o.R*o.R) / (2 * d)
	h2 := c.R*c.R - a*a
	u := o.Center.Sub(c.Center).Scale(1 / d) // unit vector c → o
	mid := c.Center.Add(u.Scale(a))
	if h2 <= tol*tol {
		// Tangent (or within tolerance of it): single point.
		pts[0] = mid
		return pts, 1
	}
	h := math.Sqrt(h2)
	perp := u.Perp().Scale(h)
	pts[0], pts[1] = mid.Add(perp), mid.Sub(perp)
	return pts, 2
}

// IntersectAllPairs returns the intersection points of every unordered pair
// of circles, using tolerance tol for near-tangency. The result aggregates
// candidate position evidence for the consistency check.
func IntersectAllPairs(circles []Circle, tol float64) []Point {
	var pts []Point
	for i := 0; i < len(circles); i++ {
		for j := i + 1; j < len(circles); j++ {
			ij, k := circles[i].Intersect2(circles[j], tol)
			pts = append(pts, ij[:k]...)
		}
	}
	return pts
}
