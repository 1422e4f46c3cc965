// Package mat implements the small amount of dense linear algebra the
// localization library needs without external dependencies: row-major dense
// matrices and one symmetric eigensolver, EigenSymIn, used by classical MDS
// and MDS-MAP. It is Householder tridiagonalization followed by implicit QL
// (EISPACK tred2/tql2), O(n³) with about 9n³ flops for the full
// decomposition; eigenvector signs are unspecified. Matrix sizes here are
// tiny — at most a few hundred rows — so clarity wins over blocking or SIMD
// tricks.
package mat

import (
	"fmt"
	"math"

	"resilientloc/internal/scratch"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense creates a zero-valued r×c matrix. It panics on non-positive
// dimensions, which always indicate a programming error.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: NewDense: invalid shape %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// densePool is the package's stashed workspace in a scratch arena: a bump
// cursor over reusable Dense headers whose backing arrays come from the
// arena's float64 pool. Release resets the cursor via scratch.Resetter.
type densePool struct {
	items []*Dense
	used  int
}

func (p *densePool) next() *Dense {
	if p.used < len(p.items) {
		d := p.items[p.used]
		p.used++
		return d
	}
	d := &Dense{}
	p.items = append(p.items, d)
	p.used++
	return d
}

// Reset rewinds the header cursor; the arena zeroes/reuses the float64
// backing independently.
func (p *densePool) Reset() { p.used = 0 }

// denseIn returns a zeroed r×c matrix backed by ws; a nil ws falls back to
// NewDense. Arena-backed matrices are valid only until ws's next Release.
func denseIn(ws *scratch.Arena, r, c int) *Dense {
	if ws == nil {
		return NewDense(r, c)
	}
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: denseIn: invalid shape %dx%d", r, c))
	}
	pool := ws.Stash("mat.densePool", func() any { return &densePool{} }).(*densePool)
	d := pool.next()
	d.rows, d.cols, d.data = r, c, ws.Float64s(r*c)
	return d
}

// NewDenseIn is NewDense with the matrix borrowed from ws (nil ws
// allocates): header from the package's stashed pool, backing from the
// arena's float64 pool. The matrix is valid only until ws's next Release.
func NewDenseIn(ws *scratch.Arena, r, c int) *Dense { return denseIn(ws, r, c) }

// Dims returns the (rows, cols) of m.
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// RowView returns row i as a subslice of the backing array (shared, not
// copied), giving hot loops flat access without per-element bounds checks.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: RowView(%d) out of %dx%d", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// cloneIn returns a deep copy of m, its backing borrowed from ws (nil
// allocates).
func (m *Dense) cloneIn(ws *scratch.Arena) *Dense {
	n := denseIn(ws, m.rows, m.cols)
	copy(n.data, m.data)
	return n
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsOffDiag returns the largest |m[i][j]|, i != j, for a square matrix.
func (m *Dense) MaxAbsOffDiag() float64 {
	var mx float64
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if i == j {
				continue
			}
			if a := math.Abs(m.At(i, j)); a > mx {
				mx = a
			}
		}
	}
	return mx
}

// String implements fmt.Stringer for debugging.
func (m *Dense) String() string {
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf("%10.4f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
