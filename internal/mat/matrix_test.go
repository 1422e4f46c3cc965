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
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone aliases original")
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

func TestTranspose(t *testing.T) {
	m, _ := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.tIn(nil)
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T dims = %dx%d, want 3x2", r, c)
	}
	if tr.At(2, 1) != 6 {
		t.Errorf("T(2,1) = %v, want 6", tr.At(2, 1))
	}
}

func TestMul(t *testing.T) {
	a, _ := fromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := fromRows([][]float64{{5, 6}, {7, 8}})
	p, err := a.mulIn(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if p.At(i, j) != want[i][j] {
				t.Errorf("(%d,%d) = %v, want %v", i, j, p.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.mulIn(nil, NewDense(3, 3)); !errors.Is(err, ErrShape) {
		t.Error("want ErrShape")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := fromRows([][]float64{{1, 2}, {3, 4}})
	y, err := a.mulVecIn(nil, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", y)
	}
	if _, err := a.mulVecIn(nil, []float64{1}); !errors.Is(err, ErrShape) {
		t.Error("want ErrShape")
	}
}

func TestAddScale(t *testing.T) {
	a, _ := fromRows([][]float64{{1, 2}})
	b, _ := fromRows([][]float64{{3, 4}})
	s, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0, 1) != 6 {
		t.Errorf("Add = %v", s)
	}
	if _, err := a.Add(NewDense(2, 2)); !errors.Is(err, ErrShape) {
		t.Error("want ErrShape")
	}
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

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(10)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := EigenSymIn(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		// Check A·v = λ·v for each eigenpair.
		for k := 0; k < n; k++ {
			v := make([]float64, n)
			for i := 0; i < n; i++ {
				v[i] = vecs.At(i, k)
			}
			av, err := a.mulVecIn(nil, v)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if !almostEq(av[i], vals[k]*v[i], 1e-8*(1+math.Abs(vals[k]))) {
					t.Fatalf("trial %d: eigenpair %d fails: Av=%v λv=%v", trial, k, av[i], vals[k]*v[i])
				}
			}
		}
		// Eigenvalues must be sorted descending.
		for k := 1; k < n; k++ {
			if vals[k] > vals[k-1]+1e-12 {
				t.Fatalf("eigenvalues not descending: %v", vals)
			}
		}
		// Eigenvectors must be orthonormal.
		for k := 0; k < n; k++ {
			for l := k; l < n; l++ {
				var dot float64
				for i := 0; i < n; i++ {
					dot += vecs.At(i, k) * vecs.At(i, l)
				}
				want := 0.0
				if k == l {
					want = 1
				}
				if !almostEq(dot, want, 1e-8) {
					t.Fatalf("vecs %d,%d dot = %v, want %v", k, l, dot, want)
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
}

func TestCholeskyAndSolve(t *testing.T) {
	a, _ := fromRows([][]float64{{4, 2}, {2, 3}})
	l, err := CholeskyIn(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	// L·Lᵀ must reconstruct a.
	lt := l.tIn(nil)
	rec, _ := l.mulIn(nil, lt)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(rec.At(i, j), a.At(i, j), 1e-10) {
				t.Errorf("LLᵀ(%d,%d) = %v, want %v", i, j, rec.At(i, j), a.At(i, j))
			}
		}
	}
	x, err := SolveCholeskyIn(nil, a, []float64{8, 7})
	if err != nil {
		t.Fatal(err)
	}
	// Verify a·x = b.
	b, _ := a.mulVecIn(nil, x)
	if !almostEq(b[0], 8, 1e-10) || !almostEq(b[1], 7, 1e-10) {
		t.Errorf("solution check failed: %v", b)
	}
}

func TestCholeskySingular(t *testing.T) {
	a, _ := fromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := CholeskyIn(nil, a); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
	if _, err := CholeskyIn(nil, NewDense(2, 3)); !errors.Is(err, ErrShape) {
		t.Error("want ErrShape for non-square")
	}
}

func TestSolveCholeskyShapeError(t *testing.T) {
	a, _ := fromRows([][]float64{{4, 2}, {2, 3}})
	if _, err := SolveCholeskyIn(nil, a, []float64{1}); !errors.Is(err, ErrShape) {
		t.Error("want ErrShape")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent: y = 2x + 1 sampled at 4 points.
	a, _ := fromRows([][]float64{{0, 1}, {1, 1}, {2, 1}, {3, 1}})
	b := []float64{1, 3, 5, 7}
	x, err := LeastSquaresIn(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-8) || !almostEq(x[1], 1, 1e-8) {
		t.Errorf("x = %v, want [2 1]", x)
	}
}

func TestLeastSquaresNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 200
	rows := make([][]float64, n)
	b := make([]float64, n)
	for i := range rows {
		x := rng.Float64() * 10
		rows[i] = []float64{x, 1}
		b[i] = 3*x - 2 + rng.NormFloat64()*0.01
	}
	a, _ := fromRows(rows)
	sol, err := LeastSquaresIn(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol[0]-3) > 0.01 || math.Abs(sol[1]+2) > 0.05 {
		t.Errorf("sol = %v, want ≈[3 -2]", sol)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	a, _ := fromRows([][]float64{{1, 2}})
	if _, err := LeastSquaresIn(nil, a, []float64{1}); !errors.Is(err, ErrShape) {
		t.Error("want ErrShape for underdetermined")
	}
	sq, _ := fromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := LeastSquaresIn(nil, sq, []float64{1, 2, 3}); !errors.Is(err, ErrShape) {
		t.Error("want ErrShape for rhs mismatch")
	}
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
