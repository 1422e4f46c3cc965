package mat

import (
	"errors"
	"math"
	"sort"

	"resilientloc/internal/scratch"
)

// EigenSymIn computes the full eigendecomposition of a symmetric matrix a
// using the cyclic Jacobi method. It returns the eigenvalues in descending
// order and the matching eigenvectors as the columns of the returned matrix.
// The input is not modified.
//
// Classical MDS needs the top eigenpairs of the double-centered squared
// distance matrix; for the network sizes in the paper (≤ 60 nodes) Jacobi is
// comfortably fast and numerically robust. The working copy, the
// accumulated rotations, and both sorted outputs are borrowed from ws (nil
// ws allocates). The returned
// values and vectors are arena-owned: valid only until ws's next Release.
func EigenSymIn(ws *scratch.Arena, a *Dense) (vals []float64, vecs *Dense, err error) {
	n, c := a.Dims()
	if n != c {
		return nil, nil, errors.New("mat: EigenSymIn: matrix not square")
	}
	if !a.IsSymmetric(1e-9 * (1 + a.MaxAbsOffDiag())) {
		return nil, nil, errors.New("mat: EigenSymIn: matrix not symmetric")
	}

	w := a.cloneIn(ws)
	v := denseIn(ws, n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := w.MaxAbsOffDiag()
		if off < 1e-13*(1+diagNorm(w)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Compute the Jacobi rotation that zeroes w[p][q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				cth := 1 / math.Sqrt(1+t*t)
				sth := t * cth
				applyJacobi(w, v, p, q, cth, sth)
			}
		}
	}

	vals = ws.Float64s(n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := ws.Ints(n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })

	sortedVals := ws.Float64s(n)
	sortedVecs := denseIn(ws, n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
}

func diagNorm(m *Dense) float64 {
	n, _ := m.Dims()
	var s float64
	for i := 0; i < n; i++ {
		s += math.Abs(m.At(i, i))
	}
	return s
}

// applyJacobi applies the rotation G(p, q, θ) on both sides of w and
// accumulates it into the eigenvector matrix v. The loops index the flat
// backing arrays directly — column walks are stride-n, row walks are
// subslices — performing the same operations in the same order as the
// At/Set formulation.
func applyJacobi(w, v *Dense, p, q int, c, s float64) {
	n, _ := w.Dims()
	wd, vd := w.data, v.data
	for k := 0; k < n; k++ {
		kp, kq := k*n+p, k*n+q
		wkp := wd[kp]
		wkq := wd[kq]
		wd[kp] = c*wkp - s*wkq
		wd[kq] = s*wkp + c*wkq
	}
	wp := wd[p*n : p*n+n]
	wq := wd[q*n : q*n+n]
	for k := 0; k < n; k++ {
		wpk := wp[k]
		wqk := wq[k]
		wp[k] = c*wpk - s*wqk
		wq[k] = s*wpk + c*wqk
	}
	for k := 0; k < n; k++ {
		kp, kq := k*n+p, k*n+q
		vkp := vd[kp]
		vkq := vd[kq]
		vd[kp] = c*vkp - s*vkq
		vd[kq] = s*vkp + c*vkq
	}
}
