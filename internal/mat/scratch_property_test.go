package mat

import (
	"math"
	"math/rand"
	"testing"

	"resilientloc/internal/scratch"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSolveCholeskyInMatchesFresh: the arena-backed factorization and
// substitution must be bit-identical to the allocating path across random
// SPD systems, with the arena reused (dirty) between iterations.
func TestSolveCholeskyInMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	ws := scratch.New()
	for iter := 0; iter < 50; iter++ {
		n := 2 + rng.Intn(12)
		a := randomSPD(n, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		want, err := SolveCholeskyIn(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveCholeskyIn(ws, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(want, got) {
			t.Fatalf("iter %d: arena solve differs from fresh solve", iter)
		}
		lWant, err := CholeskyIn(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		lGot, err := CholeskyIn(ws, a)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(lWant.data, lGot.data) {
			t.Fatalf("iter %d: arena factor differs from fresh factor", iter)
		}
		ws.Release()
	}
}

// TestLeastSquaresInMatchesFresh covers the full normal-equations chain
// (transpose, multiply, ridge, factor, substitute) on random tall systems.
func TestLeastSquaresInMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	ws := scratch.New()
	for iter := 0; iter < 50; iter++ {
		r := 3 + rng.Intn(20)
		c := 2 + rng.Intn(3)
		if c > r {
			c = r
		}
		a := NewDense(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				a.Set(i, j, rng.NormFloat64()*5)
			}
		}
		b := make([]float64, r)
		for i := range b {
			b[i] = rng.NormFloat64() * 20
		}
		want, err := LeastSquaresIn(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LeastSquaresIn(ws, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(want, got) {
			t.Fatalf("iter %d: arena least squares differs from fresh", iter)
		}
		ws.Release()
	}
}

// TestEigenSymInMatchesFresh: the Jacobi eigendecomposition with arena
// workspaces must match the allocating path bit for bit.
func TestEigenSymInMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	ws := scratch.New()
	for iter := 0; iter < 25; iter++ {
		n := 2 + rng.Intn(10)
		a := randomSPD(n, rng)
		wantVals, wantVecs, err := EigenSymIn(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		gotVals, gotVecs, err := EigenSymIn(ws, a)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(wantVals, gotVals) || !bitsEqual(wantVecs.data, gotVecs.data) {
			t.Fatalf("iter %d: arena eigendecomposition differs from fresh", iter)
		}
		ws.Release()
	}
}
