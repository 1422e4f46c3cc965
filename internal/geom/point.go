// Package geom provides the small amount of 2-D computational geometry the
// localization algorithms need: points and vectors, rigid transforms in
// homogeneous coordinates, and circle intersection.
//
// Everything works in meters in a right-handed plane. The package is
// allocation-free on hot paths; Point is a value type.
package geom

import (
	"fmt"
	"math"
)

// Point is a position (or free vector) in the plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product p · q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the 3-D cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// NormSq returns the squared Euclidean length of p. It avoids the sqrt when
// only comparisons are needed.
func (p Point) NormSq() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Unit returns p normalized to unit length. The zero vector is returned
// unchanged, so callers dividing by a near-zero distance must guard
// themselves.
func (p Point) Unit() Point {
	n := p.Norm()
	if n == 0 {
		return Point{}
	}
	return Point{p.X / n, p.Y / n}
}

// rotate returns p rotated counterclockwise by theta radians about the
// origin.
func (p Point) rotate(theta float64) Point {
	s, c := math.Sincos(theta)
	return Point{c*p.X - s*p.Y, s*p.X + c*p.Y}
}

// Perp returns p rotated by +90 degrees.
func (p Point) Perp() Point { return Point{-p.Y, p.X} }

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Centroid returns the arithmetic mean of pts. It returns the zero point for
// an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}

// collinear reports whether points a, b, c are collinear within tolerance
// tol, measured as the normalized triangle area. Degenerate (coincident)
// points count as collinear.
func collinear(a, b, c Point, tol float64) bool {
	ab := b.Sub(a)
	ac := c.Sub(a)
	area := math.Abs(ab.Cross(ac))
	scale := ab.Norm() * ac.Norm()
	if scale == 0 {
		return true
	}
	return area/scale < tol
}
