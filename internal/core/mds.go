package core

import (
	"errors"
	"fmt"
	"math"

	"resilientloc/internal/geom"
	"resilientloc/internal/mat"
	"resilientloc/internal/measure"
	"resilientloc/internal/scratch"
)

// SolveClassicalMDS runs classical (Torgerson) multidimensional scaling on a
// *complete* distance matrix: double-center the squared distances and take
// the top-2 eigenpairs (Section 4.2.1: "the input distance matrix is
// transformed to a quadratic matrix of coordinates via double averaging.
// Then, singular value decomposition is applied..."). It fails if any pair
// is missing — the "one critical requirement" that motivates LSS.
func SolveClassicalMDS(set *measure.Set) ([]geom.Point, error) {
	n := set.N()
	if n < 3 {
		return nil, fmt.Errorf("core: SolveClassicalMDS: need at least 3 nodes, have %d", n)
	}
	d, err := fullDistanceMatrix(set)
	if err != nil {
		return nil, err
	}
	return mdsFromMatrix(nil, d)
}

// SolveMDSMap runs the MDS-MAP variant (Shang et al., referenced in Section
// 2): missing pairwise distances are completed with shortest-path distances
// through the measurement graph before classical MDS. The graph must be
// connected.
func SolveMDSMap(set *measure.Set) ([]geom.Point, error) {
	return SolveMDSMapIn(nil, set)
}

// SolveMDSMapIn is SolveMDSMap with the distance matrix and MDS workspaces
// borrowed from ws (nil ws allocates). The returned points are arena-owned:
// valid only until ws's next Release.
func SolveMDSMapIn(ws *scratch.Arena, set *measure.Set) ([]geom.Point, error) {
	n := set.N()
	if n < 3 {
		return nil, fmt.Errorf("core: SolveMDSMap: need at least 3 nodes, have %d", n)
	}
	if !set.Connected() {
		return nil, errors.New("core: SolveMDSMap: measurement graph is disconnected")
	}
	d := shortestPaths(ws, set)
	return mdsFromMatrix(ws, d)
}

// fullDistanceMatrix extracts the complete n×n distance matrix or fails on
// the first missing pair.
func fullDistanceMatrix(set *measure.Set) (*mat.Dense, error) {
	n := set.N()
	d := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m, ok := set.Get(i, j)
			if !ok {
				return nil, fmt.Errorf("core: classical MDS requires all pairs; (%d,%d) missing", i, j)
			}
			d.Set(i, j, m.Distance)
			d.Set(j, i, m.Distance)
		}
	}
	return d, nil
}

// shortestPaths runs Floyd–Warshall over the measurement graph. The O(n³)
// relaxation works on flat row views — same comparisons in the same order as
// the At/Set formulation, minus the per-element bounds checks.
func shortestPaths(ws *scratch.Arena, set *measure.Set) *mat.Dense {
	n := set.N()
	d := mat.NewDenseIn(ws, n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d.Set(i, j, math.Inf(1))
			}
		}
	}
	for m := range set.Measurements() {
		d.Set(m.Pair.Lo, m.Pair.Hi, m.Distance)
		d.Set(m.Pair.Hi, m.Pair.Lo, m.Distance)
	}
	for k := 0; k < n; k++ {
		dk := d.RowView(k)
		for i := 0; i < n; i++ {
			di := d.RowView(i)
			dik := di[k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if alt := dik + dk[j]; alt < di[j] {
					di[j] = alt
				}
			}
		}
	}
	return d
}

// mdsFromMatrix applies double centering and eigendecomposition to a
// complete symmetric distance matrix, borrowing workspaces from ws (nil ws
// allocates).
func mdsFromMatrix(ws *scratch.Arena, d *mat.Dense) ([]geom.Point, error) {
	n, _ := d.Dims()
	// B = -1/2 · J·D²·J with J = I - (1/n)·11ᵀ.
	sq := mat.NewDenseIn(ws, n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := d.At(i, j)
			sq.Set(i, j, v*v)
		}
	}
	rowMean := ws.Float64s(n)
	var grand float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rowMean[i] += sq.At(i, j)
		}
		rowMean[i] /= float64(n)
		grand += rowMean[i]
	}
	grand /= float64(n)
	b := mat.NewDenseIn(ws, n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, -0.5*(sq.At(i, j)-rowMean[i]-rowMean[j]+grand))
		}
	}
	vals, vecs, err := mat.EigenSymIn(ws, b)
	if err != nil {
		return nil, fmt.Errorf("core: MDS eigendecomposition: %w", err)
	}
	if vals[0] <= 0 || vals[1] <= 0 {
		return nil, errors.New("core: MDS: top-2 eigenvalues not positive; distances are not 2-D Euclidean-like")
	}
	s0 := math.Sqrt(vals[0])
	s1 := math.Sqrt(vals[1])
	pts := ws.Points(n)
	for i := 0; i < n; i++ {
		pts[i] = geom.Pt(vecs.At(i, 0)*s0, vecs.At(i, 1)*s1)
	}
	return pts, nil
}
