package mat

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"resilientloc/internal/scratch"
)

var (
	errNonFinite     = errors.New("mat: EigenSymIn: matrix has a NaN or infinite entry")
	errNoConvergence = errors.New("mat: EigenSymIn: QL iteration did not converge")
)

// maxQLIter bounds the implicit QL iterations spent on one eigenvalue, as
// EISPACK's tql2 does.
const maxQLIter = 30

// EigenSymIn computes the full eigendecomposition of a symmetric matrix a by
// Householder reduction to tridiagonal form followed by the implicit QL
// algorithm with accumulated transformations (Bowdler, Martin, Reinsch and
// Wilkinson, Numer. Math. 1968; EISPACK tred2/tql2): O(n³), about 9n³ flops
// in all, several times fewer than the sweeps of cyclic Jacobi. It returns
// the eigenvalues in descending order, equal values in ascending order of
// their position in the QL output, and the matching unit eigenvectors as the
// columns of the returned matrix. The sign of each eigenvector is
// unspecified. The input is not modified.
//
// It fails on a non-square, asymmetric or non-finite input, and when one
// eigenvalue takes more than 30 QL iterations. The working matrix, the
// tridiagonal and the sorted outputs are borrowed from ws (nil ws
// allocates). The returned values and vectors are arena-owned: valid only
// until ws's next Release.
func EigenSymIn(ws *scratch.Arena, a *Dense) (vals []float64, vecs *Dense, err error) {
	n, c := a.Dims()
	if n != c {
		return nil, nil, errors.New("mat: EigenSymIn: matrix not square")
	}
	for _, v := range a.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, errNonFinite
		}
	}
	if !a.IsSymmetric(1e-9 * (1 + a.MaxAbsOffDiag())) {
		return nil, nil, errors.New("mat: EigenSymIn: matrix not symmetric")
	}

	// w holds the transpose of the EISPACK working matrix V, so that row j
	// of w is column j of V and every O(n³) loop walks contiguous memory. V
	// starts as aᵀ, so w starts as a.
	w := a.cloneIn(ws)
	d := ws.Float64s(n)
	e := ws.Float64s(n)
	tred2(n, w.data, d, e)
	if err = tql2(n, w.data, d, e, maxQLIter); err != nil {
		return nil, nil, err
	}

	// Row j of w is now the eigenvector of d[j]. Sort by descending value;
	// the stable sort keeps equal values in ascending j.
	idx := ws.Ints(n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(i, j int) int { return cmp.Compare(d[j], d[i]) })

	vals = ws.Float64s(n)
	vecs = denseIn(ws, n, n)
	for col, j := range idx {
		vals[col] = d[j]
		for r, v := range w.data[j*n : j*n+n] {
			vecs.data[r*n+col] = v
		}
	}
	return vals, vecs, nil
}

// tred2 reduces the symmetric matrix in w to tridiagonal form by Householder
// similarity transformations and accumulates them: on return d holds the
// diagonal, e[1:] the subdiagonal (e[0] = 0), and row j of w column j of the
// orthogonal transformation. w[j*n+k] stands for EISPACK's V[k][j].
func tred2(n int, w, d, e []float64) {
	for j := range d {
		d[j] = w[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale the row to avoid under- and overflow.
		var scale, h float64
		for _, v := range d[:i] {
			scale += math.Abs(v)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = w[j*n+i-1]
				w[j*n+i] = 0
				w[i*n+j] = 0
			}
			d[i] = h
			continue
		}

		// Generate the Householder vector.
		for k := range d[:i] {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		clear(e[:i])

		// Apply the similarity transformation to the remaining columns.
		wi := w[i*n : i*n+i]
		for j := 0; j < i; j++ {
			f = d[j]
			wi[j] = f
			wj := w[j*n : j*n+i]
			g = e[j] + wj[j]*f
			for k := j + 1; k < i; k++ {
				g += wj[k] * d[k]
				e[k] += wj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			wj := w[j*n : j*n+i]
			for k := j; k < i; k++ {
				wj[k] -= f*e[k] + g*d[k]
			}
			d[j] = wj[i-1]
			w[j*n+i] = 0
		}
		d[i] = h
	}

	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		w[i*n+n-1] = w[i*n+i]
		w[i*n+i] = 1
		wi1 := w[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k, v := range wi1 {
				d[k] = v / h
			}
			for j := 0; j <= i; j++ {
				wj := w[j*n : j*n+i+1]
				var g float64
				for k, v := range wi1 {
					g += v * wj[k]
				}
				for k := range wj {
					wj[k] -= g * d[k]
				}
			}
		}
		clear(wi1)
	}
	for j := 0; j < n; j++ {
		d[j] = w[j*n+n-1]
		w[j*n+n-1] = 0
	}
	w[n*n-1] = 1
	e[0] = 0
}

// tql2 diagonalizes the symmetric tridiagonal matrix (d, e) left by tred2 by
// the implicit QL algorithm with Wilkinson-style shifts, applying each plane
// rotation to the rows of w. On return d holds the eigenvalues, unordered,
// and row j of w the eigenvector of d[j]. It fails once one eigenvalue takes
// more than maxIter iterations.
func tql2(n int, w, d, e []float64, maxIter int) error {
	copy(e, e[1:])
	e[n-1] = 0

	const eps = 0x1p-52
	var f, tst1 float64
	for l := 0; l < n; l++ {
		// Find the first small subdiagonal element; e[n-1] = 0 ends the scan.
		tst1 = max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for math.Abs(e[m]) > eps*tst1 {
			m++
		}

		// If m == l, d[l] is an eigenvalue; otherwise iterate.
		for iter := 1; m > l; iter++ {
			if iter > maxIter {
				return errNoConvergence
			}

			// Compute the implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])

				// Accumulate the rotation into rows i and i+1.
				wi := w[i*n : i*n+n]
				wi1 := w[(i+1)*n : (i+1)*n+n]
				for k, v := range wi1 {
					wi1[k] = s*wi[k] + c*v
					wi[k] = c*wi[k] - s*v
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p

			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}
