package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// boundedPoint clamps arbitrary quick-generated floats into a sane range.
func boundedPoint(x, y float64) (Point, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		return Point{}, false
	}
	return Pt(math.Mod(x, 1e4), math.Mod(y, 1e4)), true
}

func boundedTransform(theta, tx, ty float64, flip bool) (Transform, bool) {
	if math.IsNaN(theta) || math.IsInf(theta, 0) ||
		math.IsNaN(tx) || math.IsInf(tx, 0) ||
		math.IsNaN(ty) || math.IsInf(ty, 0) {
		return Transform{}, false
	}
	return Transform{
		Theta: math.Mod(theta, 2*math.Pi),
		Tx:    math.Mod(tx, 1e4),
		Ty:    math.Mod(ty, 1e4),
		Flip:  flip,
	}, true
}

// Property: transforms preserve pairwise distances (isometry) for arbitrary
// parameters and points.
func TestPropertyTransformIsometry(t *testing.T) {
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 500}
	f := func(theta, tx, ty float64, flip bool, x1, y1, x2, y2 float64) bool {
		tr, ok := boundedTransform(theta, tx, ty, flip)
		if !ok {
			return true
		}
		p, ok1 := boundedPoint(x1, y1)
		q, ok2 := boundedPoint(x2, y2)
		if !ok1 || !ok2 {
			return true
		}
		before := p.Dist(q)
		after := tr.Apply(p).Dist(tr.Apply(q))
		return math.Abs(before-after) <= 1e-6*(1+before)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: FitRigid residual is zero (to float tolerance) whenever dst is
// an exact rigid image of src, regardless of the transform.
func TestPropertyFitRigidExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		tr := Transform{
			Theta: rng.Float64() * 2 * math.Pi,
			Tx:    rng.NormFloat64() * 50,
			Ty:    rng.NormFloat64() * 50,
			Flip:  rng.Intn(2) == 1,
		}
		n := 2 + rng.Intn(10)
		src := make([]Point, n)
		for i := range src {
			src[i] = Pt(rng.NormFloat64()*30, rng.NormFloat64()*30)
		}
		dst := tr.ApplyAll(src)
		_, sse, err := FitRigid(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if sse > 1e-9*float64(n) {
			t.Fatalf("trial %d: residual %g for exact rigid image", trial, sse)
		}
	}
}

// Property: the FitRigid residual never exceeds the residual of the
// identity transform (it is a minimizer).
func TestPropertyFitRigidIsMinimizer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(8)
		src := make([]Point, n)
		dst := make([]Point, n)
		for i := range src {
			src[i] = Pt(rng.NormFloat64()*20, rng.NormFloat64()*20)
			dst[i] = Pt(rng.NormFloat64()*20, rng.NormFloat64()*20)
		}
		_, sse, err := FitRigid(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		var idSSE float64
		for i := range src {
			idSSE += src[i].DistSq(dst[i])
		}
		if sse > idSSE+1e-9 {
			t.Fatalf("trial %d: fit residual %g exceeds identity residual %g", trial, sse, idSSE)
		}
	}
}

// Property: circle intersection points lie on both circles, for arbitrary
// circle pairs.
func TestPropertyCircleIntersection(t *testing.T) {
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(6)), MaxCount: 1000}
	f := func(cx1, cy1, r1, cx2, cy2, r2 float64) bool {
		c1, ok1 := boundedPoint(cx1, cy1)
		c2, ok2 := boundedPoint(cx2, cy2)
		if !ok1 || !ok2 || math.IsNaN(r1) || math.IsNaN(r2) || math.IsInf(r1, 0) || math.IsInf(r2, 0) {
			return true
		}
		a := Circle{Center: c1, R: math.Abs(math.Mod(r1, 100)) + 0.01}
		b := Circle{Center: c2, R: math.Abs(math.Mod(r2, 100)) + 0.01}
		for _, p := range intersect(a, b, 0) {
			scale := 1 + a.R + b.R + c1.Norm() + c2.Norm()
			if math.Abs(p.Dist(a.Center)-a.R) > 1e-6*scale ||
				math.Abs(p.Dist(b.Center)-b.R) > 1e-6*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// refIntersect is Circle.Intersect as it stood when it computed and
// allocated its result itself, before it became a wrapper over Intersect2.
func refIntersect(c, o Circle, tol float64) []Point {
	d := c.Center.Dist(o.Center)
	if d == 0 {
		return nil
	}
	if d > c.R+o.R+tol || d < math.Abs(c.R-o.R)-tol {
		return nil
	}
	a := (d*d + c.R*c.R - o.R*o.R) / (2 * d)
	h2 := c.R*c.R - a*a
	u := o.Center.Sub(c.Center).Scale(1 / d)
	mid := c.Center.Add(u.Scale(a))
	if h2 <= tol*tol {
		return []Point{mid}
	}
	h := math.Sqrt(h2)
	perp := u.Perp().Scale(h)
	return []Point{mid.Add(perp), mid.Sub(perp)}
}

func samePointBits(p, q Point) bool {
	return math.Float64bits(p.X) == math.Float64bits(q.X) &&
		math.Float64bits(p.Y) == math.Float64bits(q.Y)
}

// Property: Intersect2 returns the points of the frozen allocating
// intersection, bit for bit and in order. The inputs mix random pairs with near-tangent,
// concentric and non-finite ones.
func TestPropertyIntersect2MatchesIntersectIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	special := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300, 1e300}
	coord := func() float64 {
		if rng.Intn(20) == 0 {
			return special[rng.Intn(len(special))]
		}
		return (rng.Float64() - 0.5) * 60
	}
	for trial := 0; trial < 20000; trial++ {
		a := Circle{Center: Pt(coord(), coord()), R: math.Abs(coord())}
		b := Circle{Center: Pt(coord(), coord()), R: math.Abs(coord())}
		switch trial % 4 {
		case 1: // near-tangent: the center distance is close to R1+R2
			b.R = math.Max(0, a.Center.Dist(b.Center)-a.R+(rng.Float64()-0.5)*1e-3)
		case 2: // concentric
			b.Center = a.Center
		}
		tol := []float64{0, 1e-9, 0.125, 0.5, 1.5}[rng.Intn(5)]
		want := refIntersect(a, b, tol)
		pts, k := a.Intersect2(b, tol)
		if k != len(want) {
			t.Fatalf("trial %d: %v ∩ %v tol %g: Intersect2 k=%d, reference %d",
				trial, a, b, tol, k, len(want))
		}
		for i := range want {
			if !samePointBits(pts[i], want[i]) {
				t.Fatalf("trial %d: point %d: Intersect2 %v, reference %v",
					trial, i, pts[i], want[i])
			}
		}
	}
}
