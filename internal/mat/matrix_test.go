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
			for i := 0; i < n; i++ {
				var av float64
				for j := 0; j < n; j++ {
					av += a.At(i, j) * v[j]
				}
				if !almostEq(av, vals[k]*v[i], 1e-8*(1+math.Abs(vals[k]))) {
					t.Fatalf("trial %d: eigenpair %d fails: Av=%v λv=%v", trial, k, av, vals[k]*v[i])
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
