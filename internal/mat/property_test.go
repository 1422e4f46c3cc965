package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randomSymmetric draws a random symmetric n×n matrix.
func randomSymmetric(n int, rng *rand.Rand) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64() * 10
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
	bt := b.tIn(nil)
	spd, err := b.mulIn(nil, bt)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
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
		a := randomSymmetric(n, rng)
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

// Property: SolveCholesky returns x with A·x = b for arbitrary SPD systems.
func TestPropertyCholeskySolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		a := randomSPD(n, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 5
		}
		x, err := SolveCholeskyIn(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		ax, err := a.mulVecIn(nil, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-6*(1+math.Abs(b[i])) {
				t.Fatalf("trial %d: residual %g at row %d", trial, ax[i]-b[i], i)
			}
		}
	}
}

// Property: the least-squares residual A·x − b is orthogonal to the column
// space of A (the normal-equation condition Aᵀ(A·x − b) = 0).
func TestPropertyLeastSquaresOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		rows := 3 + rng.Intn(20)
		cols := 1 + rng.Intn(3)
		if cols > rows {
			cols = rows
		}
		a := NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, rng.NormFloat64()*3)
			}
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = rng.NormFloat64() * 3
		}
		x, err := LeastSquaresIn(nil, a, b)
		if err != nil {
			continue // singular draw: acceptable
		}
		ax, err := a.mulVecIn(nil, x)
		if err != nil {
			t.Fatal(err)
		}
		resid := make([]float64, rows)
		for i := range resid {
			resid[i] = ax[i] - b[i]
		}
		atr, err := a.tIn(nil).mulVecIn(nil, resid)
		if err != nil {
			t.Fatal(err)
		}
		var scale float64
		for _, v := range b {
			scale += math.Abs(v)
		}
		for j, v := range atr {
			if math.Abs(v) > 1e-5*(1+scale) {
				t.Fatalf("trial %d: Aᵀr[%d] = %g, want ≈0", trial, j, v)
			}
		}
	}
}

// Property: transposition is an involution and (A·B)ᵀ = Bᵀ·Aᵀ.
func TestPropertyTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		r := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		a := NewDense(r, c)
		b := NewDense(c, k)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		for i := 0; i < c; i++ {
			for j := 0; j < k; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		att := a.tIn(nil).tIn(nil)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if att.At(i, j) != a.At(i, j) {
					t.Fatal("transpose not an involution")
				}
			}
		}
		ab, err := a.mulIn(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		left := ab.tIn(nil)
		right, err := b.tIn(nil).mulIn(nil, a.tIn(nil))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			for j := 0; j < r; j++ {
				if math.Abs(left.At(i, j)-right.At(i, j)) > 1e-9 {
					t.Fatalf("(AB)ᵀ != BᵀAᵀ at (%d,%d)", i, j)
				}
			}
		}
	}
}
