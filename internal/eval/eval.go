// Package eval computes the evaluation metrics of the paper's Section 4:
// average localization error after best-fit alignment. Because LSS produces
// coordinates in an arbitrary rigid frame, "the computed coordinates were
// translated, rotated and flipped to achieve a best-fit match with the
// actual node coordinates" (Figure 18) before errors are measured.
package eval

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"resilientloc/internal/geom"
)

// Alignment is the result of registering estimated positions onto ground
// truth.
type Alignment struct {
	Transform geom.Transform
	// Aligned are the estimated positions after the best-fit transform.
	Aligned []geom.Point
	// Errors are per-node distances between aligned estimates and truth.
	Errors []float64
	// AvgError is the paper's headline metric: the mean of Errors.
	AvgError float64
	// MaxError is the largest single-node error.
	MaxError float64
}

// Fit registers est onto truth with the best rigid transform (translation,
// rotation, optional reflection) and returns the per-node and average
// errors. The slices must be equal-length with at least 2 points, all
// finite.
func Fit(est, truth []geom.Point) (*Alignment, error) {
	if len(est) != len(truth) {
		return nil, fmt.Errorf("eval: Fit: length mismatch %d != %d", len(est), len(truth))
	}
	for i := range est {
		if !est[i].IsFinite() || !truth[i].IsFinite() {
			return nil, fmt.Errorf("eval: Fit: non-finite point %d: estimate %v, truth %v", i, est[i], truth[i])
		}
	}
	tr, _, err := geom.FitRigid(est, truth)
	if err != nil {
		return nil, err
	}
	a := &Alignment{Transform: tr, Aligned: tr.ApplyAll(est)}
	a.Errors = make([]float64, len(est))
	for i := range a.Aligned {
		e := a.Aligned[i].Dist(truth[i])
		a.Errors[i] = e
		a.AvgError += e
		a.MaxError = math.Max(a.MaxError, e)
	}
	a.AvgError /= float64(len(est))
	return a, nil
}

// FitSubset aligns only the listed node indices (e.g. the localized subset
// of a multilateration run) and returns their alignment.
func FitSubset(est map[int]geom.Point, truth []geom.Point, nodes []int) (*Alignment, error) {
	if len(nodes) < 2 {
		return nil, errors.New("eval: FitSubset: need at least 2 nodes")
	}
	e := make([]geom.Point, 0, len(nodes))
	tr := make([]geom.Point, 0, len(nodes))
	for _, i := range nodes {
		p, ok := est[i]
		if !ok {
			return nil, fmt.Errorf("eval: FitSubset: node %d missing from estimates", i)
		}
		if i < 0 || i >= len(truth) {
			return nil, fmt.Errorf("eval: FitSubset: node %d outside truth", i)
		}
		e = append(e, p)
		tr = append(tr, truth[i])
	}
	return Fit(e, tr)
}

// AvgErrorAbsolute computes the mean error of positions already expressed in
// the truth frame (multilateration outputs are absolute because anchors pin
// the frame — no alignment is applied, matching the paper's multilateration
// figures).
func AvgErrorAbsolute(est map[int]geom.Point, truth []geom.Point) (avg float64, worst float64, err error) {
	if len(est) == 0 {
		return 0, 0, errors.New("eval: AvgErrorAbsolute: no estimates")
	}
	// Accumulate in sorted node order: summing in Go's randomized map
	// iteration order makes the result differ in the last ulp from run to
	// run, which breaks the bit-exact reproducibility the scenario engine
	// guarantees.
	nodes := make([]int, 0, len(est))
	for i := range est {
		nodes = append(nodes, i)
	}
	sort.Ints(nodes)
	for _, i := range nodes {
		if i < 0 || i >= len(truth) {
			return 0, 0, fmt.Errorf("eval: AvgErrorAbsolute: node %d outside truth", i)
		}
		e := est[i].Dist(truth[i])
		avg += e
		worst = math.Max(worst, e)
	}
	return avg / float64(len(est)), worst, nil
}

// TrimmedAvg returns the average of errs after dropping the k largest — the
// paper repeatedly reports both forms ("Without the largest 5 errors, the
// average improves to 1.5m").
func TrimmedAvg(errs []float64, k int) (float64, error) {
	if len(errs) == 0 {
		return 0, errors.New("eval: TrimmedAvg: empty input")
	}
	if k < 0 || k >= len(errs) {
		return 0, fmt.Errorf("eval: TrimmedAvg: cannot trim %d of %d", k, len(errs))
	}
	sorted := append([]float64(nil), errs...)
	// Insertion sort is fine for evaluation-sized inputs.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	keep := sorted[:len(sorted)-k]
	var s float64
	for _, e := range keep {
		s += e
	}
	return s / float64(len(keep)), nil
}
