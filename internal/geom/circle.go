package geom

import "math"

// Circle is a circle in the plane: the locus of points at distance R from
// Center. Range circles around anchors are the geometric primitive of the
// multilateration intersection consistency check (paper Section 4.1.2).
type Circle struct {
	Center Point
	R      float64
}

// Intersect2 computes the intersection points of two circles, without
// allocating: they are pts[:k], where k is
//   - 0 when the circles are disjoint (too far apart or nested) or
//     coincident,
//   - 1 when they are tangent (within tol of tangency),
//   - 2 otherwise.
//
// tol is an absolute tolerance in meters on the tangency test; pass 0 for
// exact arithmetic behaviour.
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
