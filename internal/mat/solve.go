package mat

import (
	"fmt"
	"math"

	"resilientloc/internal/scratch"
)

// CholeskyIn factors a symmetric positive-definite matrix a as L·Lᵀ and
// returns the lower-triangular factor L, borrowed from ws (nil ws
// allocates). It returns ErrSingular when a is not positive definite within
// floating-point tolerance. The inner loops run over the flat backing arrays — same
// operations in the same order as the At/Set formulation, so the factor is
// bit-identical — with the row bases hoisted out of the k loop.
func CholeskyIn(ws *scratch.Arena, a *Dense) (*Dense, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrShape, n, c)
	}
	l := denseIn(ws, n, n)
	ld := l.data
	ad := a.data
	for i := 0; i < n; i++ {
		li := ld[i*n : i*n+n]
		ai := ad[i*n : i*n+n]
		for j := 0; j <= i; j++ {
			lj := ld[j*n : j*n+n]
			sum := ai[j]
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, fmt.Errorf("%w: pivot %d = %g", ErrSingular, i, sum)
				}
				li[i] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return l, nil
}

// SolveCholeskyIn solves a·x = b for symmetric positive-definite a using
// the Cholesky factorization, with the factor and both substitution vectors
// borrowed from ws (nil ws allocates). The returned solution is
// arena-owned: valid only until ws's next Release.
func SolveCholeskyIn(ws *scratch.Arena, a *Dense, b []float64) ([]float64, error) {
	n, _ := a.Dims()
	if len(b) != n {
		return nil, fmt.Errorf("%w: solve %dx%d with rhs %d", ErrShape, n, n, len(b))
	}
	l, err := CholeskyIn(ws, a)
	if err != nil {
		return nil, err
	}
	ld := l.data
	// Forward substitution: L·y = b.
	y := ws.Float64s(n)
	for i := 0; i < n; i++ {
		li := ld[i*n : i*n+n]
		s := b[i]
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
	// Back substitution: Lᵀ·x = y. The factor is read down column i, a
	// stride-n walk over the flat array.
	x := ws.Float64s(n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * x[k]
		}
		x[i] = s / ld[i*n+i]
	}
	return x, nil
}

// LeastSquaresIn solves min ‖a·x - b‖₂ via the normal equations
// aᵀa·x = aᵀb with a small ridge term for conditioning. a must have at least
// as many rows as columns. For the tiny systems in this repository (2–3
// unknowns) the normal equations are perfectly adequate. Every intermediate
// (aᵀ, aᵀa, aᵀb, the Cholesky factor, and the solution) is borrowed from ws
// (nil ws allocates).
// The returned solution is arena-owned: valid only until ws's next Release.
func LeastSquaresIn(ws *scratch.Arena, a *Dense, b []float64) ([]float64, error) {
	r, c := a.Dims()
	if len(b) != r {
		return nil, fmt.Errorf("%w: lstsq %dx%d with rhs %d", ErrShape, r, c, len(b))
	}
	if r < c {
		return nil, fmt.Errorf("%w: underdetermined system %dx%d", ErrShape, r, c)
	}
	at := a.tIn(ws)
	ata, err := at.mulIn(ws, a)
	if err != nil {
		return nil, err
	}
	// Ridge scaled to the matrix magnitude keeps Cholesky stable when a is
	// nearly rank-deficient (e.g. collinear anchors).
	var trace float64
	for i := 0; i < c; i++ {
		trace += ata.At(i, i)
	}
	ridge := 1e-12 * (1 + trace/float64(c))
	for i := 0; i < c; i++ {
		ata.Set(i, i, ata.At(i, i)+ridge)
	}
	atb, err := at.mulVecIn(ws, b)
	if err != nil {
		return nil, err
	}
	return SolveCholeskyIn(ws, ata, atb)
}
