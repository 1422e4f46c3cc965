package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randomSymmetric draws a random symmetric n×n matrix of standard normal
// entries times scale.
func randomSymmetric(n int, scale float64, rng *rand.Rand) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64() * scale
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// randomSPD draws a random symmetric positive-definite matrix as B·Bᵀ + εI.
func randomSPD(n int, rng *rand.Rand) *Dense {
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	spd := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b.At(i, k) * b.At(j, k)
			}
			spd.Set(i, j, s)
		}
		spd.Set(i, i, spd.At(i, i)+0.5)
	}
	return spd
}

// Property: the trace equals the sum of eigenvalues, and the sum of squared
// entries (Frobenius norm²) equals the sum of squared eigenvalues — both
// invariants of symmetric eigendecomposition.
func TestPropertyEigenTraceAndFrobenius(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		a := randomSymmetric(n, 10, rng)
		vals, _, err := EigenSymIn(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		var trace, frob, valSum, valSq float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			for j := 0; j < n; j++ {
				frob += a.At(i, j) * a.At(i, j)
			}
		}
		for _, v := range vals {
			valSum += v
			valSq += v * v
		}
		if math.Abs(trace-valSum) > 1e-7*(1+math.Abs(trace)) {
			t.Fatalf("trial %d: trace %g != Σλ %g", trial, trace, valSum)
		}
		if math.Abs(frob-valSq) > 1e-6*(1+frob) {
			t.Fatalf("trial %d: ‖A‖²_F %g != Σλ² %g", trial, frob, valSq)
		}
	}
}
