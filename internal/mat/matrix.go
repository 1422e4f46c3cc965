// Package mat implements the small amount of dense linear algebra the
// localization library needs without external dependencies: row-major dense
// matrices, a cyclic Jacobi eigendecomposition for symmetric matrices (used
// by the classical-MDS baseline), and linear least squares via normal
// equations with Cholesky factorization (used by linearized multilateration
// seeding). Matrix sizes here are tiny — at most a few hundred rows — so
// clarity wins over blocking or SIMD tricks.
package mat

import (
	"errors"
	"fmt"
	"math"

	"resilientloc/internal/scratch"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: incompatible shapes")

// ErrSingular is returned when a factorization encounters a (near-)singular
// matrix.
var ErrSingular = errors.New("mat: singular matrix")

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

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense { return m.cloneIn(nil) }

// cloneIn is Clone with the copy's backing borrowed from ws (nil allocates).
func (m *Dense) cloneIn(ws *scratch.Arena) *Dense {
	n := denseIn(ws, m.rows, m.cols)
	copy(n.data, m.data)
	return n
}

// tIn returns the transpose of m, borrowed from ws (nil allocates).
func (m *Dense) tIn(ws *scratch.Arena) *Dense {
	t := denseIn(ws, m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// mulIn returns m · b, borrowed from ws (nil allocates).
func (m *Dense) mulIn(ws *scratch.Arena, b *Dense) (*Dense, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := denseIn(ws, m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out, nil
}

// mulVecIn returns m · x for a column vector x of length m.cols, borrowed
// from ws (nil allocates).
func (m *Dense) mulVecIn(ws *scratch.Arena, x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("%w: %dx%d · vec(%d)", ErrShape, m.rows, m.cols, len(x))
	}
	out := ws.Float64s(m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Add returns m + b as a new matrix.
func (m *Dense) Add(b *Dense) (*Dense, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out, nil
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
