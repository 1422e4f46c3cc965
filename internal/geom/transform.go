package geom

import (
	"fmt"
	"math"
)

// Transform is a rigid (isometric) transform of the plane: an optional
// reflection about the x-axis, followed by a counterclockwise rotation,
// followed by a translation:
//
//	q = R(θ) · F · p + t,  F = diag(1, f),  f ∈ {+1, -1}
//
// This is the transform family of the paper's Section 4.3.1 (translation,
// rotation, and reflection between two nodes' local coordinate systems). The
// paper writes it as a 3×3 homogeneous matrix; we store the four parameters
// (θ, tx, ty, f) directly. The zero Transform is the identity.
type Transform struct {
	Theta float64 // rotation angle, radians, counterclockwise
	Tx    float64 // translation x, meters
	Ty    float64 // translation y, meters
	Flip  bool    // true when the transform includes a reflection (f = -1)
}

// Apply maps point p through the transform.
func (t Transform) Apply(p Point) Point {
	v := t.ApplyVector(p)
	return Point{v.X + t.Tx, v.Y + t.Ty}
}

// ApplyVector maps a free vector through the linear part only (reflection
// then rotation, no translation). Use this for axis vectors during the
// distributed alignment step.
func (t Transform) ApplyVector(p Point) Point {
	s, c := math.Sincos(t.Theta)
	y := p.Y
	if t.Flip {
		y = -y
	}
	return Point{c*p.X - s*y, s*p.X + c*y}
}

// ApplyAll maps every point in pts and returns a new slice.
func (t Transform) ApplyAll(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = t.Apply(p)
	}
	return out
}

// String implements fmt.Stringer.
func (t Transform) String() string {
	f := "+"
	if t.Flip {
		f = "-"
	}
	return fmt.Sprintf("Transform{θ=%.4f rad, t=(%.3f, %.3f), f=%s1}", t.Theta, t.Tx, t.Ty, f)
}

// FitRigid computes the rigid transform (rotation + optional reflection +
// translation) that best maps src onto dst in the least-squares sense,
// together with the residual sum of squared errors. The slices must have
// equal length n >= 2. This solves the paper's Section 4.3.1 minimization
//
//	argmin_{θ,tx,ty,f} Σ_n ||T(src_n) - dst_n||²
//
// in closed form via the covariance method (the paper's "alternate method",
// which is in fact the exact optimum of the centered problem): translation
// maps the centroid of src to the centroid of dst, and the rotation angle
// satisfies the paper's normal equation
//
//	[Cxu + Cyv, Cxv - Cyu] · [sinθ, cosθ]^T = 0
//
// with the error-minimizing branch of the two solutions (θ, θ+π) selected.
// Both reflection factors f = ±1 are tried and the smaller-error fit wins.
func FitRigid(src, dst []Point) (Transform, float64, error) {
	if len(src) != len(dst) {
		return Transform{}, 0, fmt.Errorf("geom: FitRigid: length mismatch %d != %d", len(src), len(dst))
	}
	if len(src) < 2 {
		return Transform{}, 0, fmt.Errorf("geom: FitRigid: need at least 2 point pairs, got %d", len(src))
	}
	best, bestErr := fitWithFlip(src, dst, false)
	cand, candErr := fitWithFlip(src, dst, true)
	if candErr < bestErr {
		best, bestErr = cand, candErr
	}
	return best, bestErr, nil
}

// fitWithFlip solves the centered least-squares rotation for a fixed
// reflection factor and returns the assembled transform plus residual SSE.
func fitWithFlip(src, dst []Point, flip bool) (Transform, float64) {
	mu := Centroid(src)
	mx := Centroid(dst)

	// Covariances per the paper: C_ab = Σ (a_n - µ_a)(b_n - µ_b)/|C|, with
	// the reflection applied to the centered source y-coordinate up front.
	var cxu, cyv, cxv, cyu float64
	for i := range src {
		u := src[i].X - mu.X
		v := src[i].Y - mu.Y
		if flip {
			v = -v
		}
		x := dst[i].X - mx.X
		y := dst[i].Y - mx.Y
		cxu += x * u
		cyv += y * v
		cxv += x * v
		cyu += y * u
	}

	// Minimizing Σ ||R(θ)p' - q||² maximizes Σ q·R(θ)p' =
	// cosθ(Cxu + Cyv) + sinθ(Cyu - Cxv); atan2 picks the maximizing branch,
	// which is the error-minimizing one of the two roots of the paper's
	// normal equation.
	theta := math.Atan2(cyu-cxv, cxu+cyv)

	// Assemble: translate(-µ), rotate/flip, translate(+µ_dst). The composed
	// translation is t = µ_dst - L·µ_src.
	lin := Transform{Theta: theta, Flip: flip}
	lmu := lin.ApplyVector(mu)
	t := Transform{
		Theta: theta,
		Tx:    mx.X - lmu.X,
		Ty:    mx.Y - lmu.Y,
		Flip:  flip,
	}

	var sse float64
	for i := range src {
		sse += t.Apply(src[i]).DistSq(dst[i])
	}
	return t, sse
}
