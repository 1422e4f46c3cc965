package measure

import (
	"errors"
	"math"
	"sort"

	"resilientloc/internal/deploy"
)

// Deployment-constraint filtering (paper Section 3.5.1): "On a regular grid
// deployment, a set of possible inter-node distances can be deduced from the
// size and shape of the grid configuration. These data provide additional
// constraints that consistent ranging measurements should satisfy." The
// paper lists this as planned future filtering; we implement it.

// KnownDistances returns the sorted set of distinct inter-node distances a
// deployment's geometry admits, up to maxRange, merged within mergeTol
// (distances closer than mergeTol collapse to one entry).
func KnownDistances(dep *deploy.Deployment, maxRange, mergeTol float64) []float64 {
	var ds []float64
	for i := 0; i < dep.N(); i++ {
		for j := i + 1; j < dep.N(); j++ {
			d := dep.Positions[i].Dist(dep.Positions[j])
			if d <= maxRange {
				ds = append(ds, d)
			}
		}
	}
	sort.Float64s(ds)
	var out []float64
	for _, d := range ds {
		if len(out) == 0 || d-out[len(out)-1] > mergeTol {
			out = append(out, d)
		}
	}
	return out
}

// ConstraintAction selects what FilterKnownDistances does with a
// measurement that is not close to any allowed distance.
type ConstraintAction int

const (
	// ConstraintDrop removes non-conforming measurements.
	ConstraintDrop ConstraintAction = iota + 1
	// ConstraintSnap replaces a non-conforming measurement's distance with
	// the nearest allowed value (keeping its weight), trading bias for
	// robustness when the deployment geometry is exactly known.
	ConstraintSnap
	// ConstraintDownweight keeps non-conforming measurements but halves
	// their LSS weight, the paper's "it may be beneficial to retain
	// suspicious measurements due to the scarcity of available data".
	ConstraintDownweight
)

// FilterKnownDistances validates every measurement in s against the allowed
// distance set: a measurement within tol of some allowed distance is
// untouched; otherwise the action applies. It returns the number of
// measurements affected. allowed must be sorted ascending and non-empty.
func FilterKnownDistances(s *Set, allowed []float64, tol float64, action ConstraintAction) (int, error) {
	if len(allowed) == 0 {
		return 0, errors.New("measure: FilterKnownDistances: empty allowed set")
	}
	if tol < 0 {
		return 0, errors.New("measure: FilterKnownDistances: negative tolerance")
	}
	switch action {
	case ConstraintDrop, ConstraintSnap, ConstraintDownweight:
	default:
		return 0, errors.New("measure: FilterKnownDistances: invalid action")
	}
	if action == ConstraintDrop {
		return s.retain(func(_ int, m Measurement) bool {
			return math.Abs(nearestSorted(allowed, m.Distance)-m.Distance) <= tol
		}), nil
	}
	affected := 0
	for _, m := range s.All() {
		nearest := nearestSorted(allowed, m.Distance)
		if math.Abs(nearest-m.Distance) <= tol {
			continue
		}
		affected++
		switch action {
		case ConstraintSnap:
			if err := s.Add(m.Pair.Lo, m.Pair.Hi, nearest, m.Weight); err != nil {
				return affected, err
			}
		case ConstraintDownweight:
			if err := s.Add(m.Pair.Lo, m.Pair.Hi, m.Distance, m.Weight/2); err != nil {
				return affected, err
			}
		}
	}
	return affected, nil
}

// nearestSorted returns the element of sorted xs closest to v.
func nearestSorted(xs []float64, v float64) float64 {
	i := sort.SearchFloat64s(xs, v)
	switch {
	case i == 0:
		return xs[0]
	case i == len(xs):
		return xs[len(xs)-1]
	case v-xs[i-1] <= xs[i]-v:
		return xs[i-1]
	default:
		return xs[i]
	}
}
