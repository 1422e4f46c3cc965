package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDensePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for 0x3")
		}
	}()
	NewDense(0, 3)
}

func TestFromRows(t *testing.T) {
	m, err := fromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := fromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("want error for ragged rows")
	}
	if _, err := fromRows(nil); err == nil {
		t.Error("want error for empty input")
	}
}

func TestSetAtClone(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("Set/At mismatch")
	}
	c := m.cloneIn(nil)
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 || c.At(1, 2) != 7 {
		t.Error("cloneIn aliases or drops the original")
	}
}

func TestIndexPanics(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("want panic for out-of-range index")
		}
	}()
	m.At(2, 0)
}

func TestIsSymmetric(t *testing.T) {
	sym, _ := fromRows([][]float64{{1, 2}, {2, 3}})
	if !sym.IsSymmetric(0) {
		t.Error("symmetric matrix not detected")
	}
	asym, _ := fromRows([][]float64{{1, 2}, {2.1, 3}})
	if asym.IsSymmetric(1e-6) {
		t.Error("asymmetric matrix passed")
	}
	if NewDense(2, 3).IsSymmetric(0) {
		t.Error("non-square matrix passed")
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a, _ := fromRows([][]float64{{3, 0}, {0, 1}})
	vals, vecs, err := EigenSymIn(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 3, 1e-10) || !almostEq(vals[1], 1, 1e-10) {
		t.Errorf("vals = %v, want [3 1]", vals)
	}
	if math.Abs(vecs.At(0, 0)) < 0.99 {
		t.Errorf("first eigenvector not e1-aligned: %v", vecs)
	}
}

func TestEigenSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/√2, (1,-1)/√2.
	a, _ := fromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSymIn(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 3, 1e-10) || !almostEq(vals[1], 1, 1e-10) {
		t.Errorf("vals = %v, want [3 1]", vals)
	}
	// Eigenvector direction check (sign-insensitive).
	v0 := []float64{vecs.At(0, 0), vecs.At(1, 0)}
	if math.Abs(math.Abs(v0[0])-math.Sqrt(0.5)) > 1e-9 {
		t.Errorf("v0 = %v, want ±(1,1)/√2", v0)
	}
}

// TestEigenSymReconstruction checks the decomposition's contract over sizes
// up to twice the town network, degenerate spectra, the rank-2 MDS case and
// entries near both ends of the float64 range: ‖AV − VΛ‖_F ≤ 64·n·ε·‖A‖_F,
// max |VᵀV − I| ≤ 64·n·ε, values descending, and the input unmodified.
func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type tc struct {
		name string
		a    *Dense
	}
	var cases []tc
	for _, n := range []int{1, 2, 3, 10, 59, 118} {
		for _, scale := range []float64{1, 1e150, 1e-150} {
			cases = append(cases, tc{fmt.Sprintf("random n=%d scale=%g", n, scale), randomSymmetric(n, scale, rng)})
		}
		cases = append(cases,
			tc{fmt.Sprintf("zero n=%d", n), NewDense(n, n)},
			tc{fmt.Sprintf("identity n=%d", n), diagonal(ones(n))},
		)
	}
	cases = append(cases,
		tc{"repeated diagonal", diagonal([]float64{2, 5, 2, 5, 1, 5})},
		tc{"mds n=10", doubleCentered(10, rng)},
		tc{"mds n=59", doubleCentered(59, rng)},
	)
	const eps = 0x1p-52
	for _, c := range cases {
		a := c.a
		n, _ := a.Dims()
		orig := append([]float64(nil), a.data...)
		vals, vecs, err := EigenSymIn(nil, a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bitsEqual(a.data, orig) {
			t.Fatalf("%s: input modified", c.name)
		}
		for k := 1; k < n; k++ {
			if vals[k] > vals[k-1] {
				t.Fatalf("%s: eigenvalues not descending: %v", c.name, vals)
			}
		}
		// Residual AV − VΛ, column by column.
		res := make([]float64, 0, n*n)
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				var av float64
				for j := 0; j < n; j++ {
					av += a.At(i, j) * vecs.At(j, k)
				}
				res = append(res, av-vals[k]*vecs.At(i, k))
			}
		}
		if r, bound := frobenius(res), 64*float64(n)*eps*frobenius(a.data); r > bound {
			t.Errorf("%s: ‖AV − VΛ‖_F = %g > %g", c.name, r, bound)
		}
		var worst float64
		for k := 0; k < n; k++ {
			for l := k; l < n; l++ {
				var dot float64
				for i := 0; i < n; i++ {
					dot += vecs.At(i, k) * vecs.At(i, l)
				}
				if k == l {
					dot--
				}
				worst = max(worst, math.Abs(dot))
			}
		}
		if bound := 64 * float64(n) * eps; worst > bound {
			t.Errorf("%s: max |VᵀV − I| = %g > %g", c.name, worst, bound)
		}
	}
}

// TestEigenSymTieOrder: equal eigenvalues keep ascending order of their
// position in the QL output, which for a diagonal input is the position on
// the diagonal, so column k of the eigenvectors is the unit vector e_src[k].
func TestEigenSymTieOrder(t *testing.T) {
	for _, c := range []struct {
		diag []float64
		src  []int
	}{
		{[]float64{2, 5, 2, 5, 1, 5}, []int{1, 3, 5, 0, 2, 4}},
		{[]float64{0, 0, 0}, []int{0, 1, 2}},
		{[]float64{1, 1, 1, 1}, []int{0, 1, 2, 3}},
	} {
		vals, vecs, err := EigenSymIn(nil, diagonal(c.diag))
		if err != nil {
			t.Fatal(err)
		}
		for col, src := range c.src {
			if vals[col] != c.diag[src] {
				t.Fatalf("diag %v: vals = %v", c.diag, vals)
			}
			for r := range c.diag {
				want := 0.0
				if r == src {
					want = 1
				}
				if math.Abs(vecs.At(r, col)) != want {
					t.Fatalf("diag %v: column %d is not unit vector %d:\n%v", c.diag, col, src, vecs)
				}
			}
		}
	}
}

func TestEigenSymErrors(t *testing.T) {
	if _, _, err := EigenSymIn(nil, NewDense(2, 3)); err == nil {
		t.Error("want error for non-square")
	}
	asym, _ := fromRows([][]float64{{1, 5}, {0, 1}})
	if _, _, err := EigenSymIn(nil, asym); err == nil {
		t.Error("want error for asymmetric")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, at := range [][2]int{{1, 1}, {0, 2}} {
			a := randomSymmetric(4, 1, rand.New(rand.NewSource(3)))
			a.Set(at[0], at[1], bad)
			a.Set(at[1], at[0], bad)
			if _, _, err := EigenSymIn(nil, a); !errors.Is(err, errNonFinite) {
				t.Errorf("%v at %v: err = %v, want errNonFinite", bad, at, err)
			}
		}
	}
}

// TestEigenSymQLBound: QL that needs more iterations on one eigenvalue than
// its bound returns errNoConvergence instead of looping, and its scan for a
// small subdiagonal entry stays inside e even when d holds a NaN or +Inf
// that EigenSymIn's input check would have rejected.
func TestEigenSymQLBound(t *testing.T) {
	const n = 10
	w := randomSymmetric(n, 1, rand.New(rand.NewSource(9))).data
	d, e := make([]float64, n), make([]float64, n)
	tred2(n, w, d, e)
	if err := tql2(n, w, d, e, 1); !errors.Is(err, errNoConvergence) {
		t.Errorf("err = %v, want errNoConvergence", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		d := []float64{1, bad, 3}
		e := []float64{0, 1, 1}
		_ = tql2(3, diagonal(ones(3)).data, d, e, maxQLIter)
	}
}

// doubleCentered returns B = −½·J·D²·J for the exact distances between n
// random points in a 100 m square: the rank-2 matrix classical MDS
// decomposes, built the way it builds it.
func doubleCentered(n int, rng *rand.Rand) *Dense {
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*100, rng.Float64()*100
	}
	sq := NewDense(n, n)
	rowMean := make([]float64, n)
	var grand float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			sq.Set(i, j, dx*dx+dy*dy)
			rowMean[i] += sq.At(i, j) / float64(n)
		}
		grand += rowMean[i] / float64(n)
	}
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, -0.5*(sq.At(i, j)-rowMean[i]-rowMean[j]+grand))
		}
	}
	return b
}

func diagonal(d []float64) *Dense {
	a := NewDense(len(d), len(d))
	for i, v := range d {
		a.Set(i, i, v)
	}
	return a
}

func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// frobenius is the 2-norm of x, scaled so squares of entries near the ends
// of the float64 range neither overflow nor underflow.
func frobenius(x []float64) float64 {
	var big float64
	for _, v := range x {
		big = max(big, math.Abs(v))
	}
	if big == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += (v / big) * (v / big)
	}
	return big * math.Sqrt(s)
}

// fromRows builds a matrix from a slice of equal-length rows.
func fromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("mat: fromRows: empty input")
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("mat: fromRows: ragged row %d (%d != %d)", i, len(row), c)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}
