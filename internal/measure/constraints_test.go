package measure

import (
	"math"
	"math/rand"
	"testing"

	"resilientloc/internal/deploy"
)

func TestKnownDistances(t *testing.T) {
	dep, err := deploy.OffsetGrid(2, 2, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Positions: (0,0), (10,0), (5,9), (15,9): distances 10 (×2),
	// sqrt(25+81)=10.30 (×2), sqrt(225+81)=17.49, sqrt(25+81)... and
	// (0,0)-(15,9) = 17.49. Expect {10, 10.30, 17.49} after merging.
	ds := KnownDistances(dep, 100, 0.2)
	if len(ds) != 3 {
		t.Fatalf("got %d distinct distances %v, want 3", len(ds), ds)
	}
	want := []float64{10, math.Hypot(5, 9), math.Hypot(15, 9)}
	for i, w := range want {
		if math.Abs(ds[i]-w) > 0.2 {
			t.Errorf("distance %d = %v, want %v", i, ds[i], w)
		}
	}
	// Range cutoff removes the long diagonal.
	short := KnownDistances(dep, 12, 0.2)
	if len(short) != 2 {
		t.Errorf("with cutoff got %v, want 2 entries", short)
	}
}

func TestFilterKnownDistancesDrop(t *testing.T) {
	s := mustSet(t, 4)
	_ = s.Add(0, 1, 10.1, 1)  // conforming (near 10)
	_ = s.Add(1, 2, 13.7, 1)  // non-conforming
	_ = s.Add(2, 3, 17.45, 1) // conforming (near 17.49)
	allowed := []float64{10, 10.30, 17.49}
	n, err := FilterKnownDistances(s, allowed, 0.3, ConstraintDrop)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("affected = %d, want 1", n)
	}
	if _, ok := s.Get(1, 2); ok {
		t.Error("non-conforming measurement survived drop")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestFilterKnownDistancesSnap(t *testing.T) {
	s := mustSet(t, 2)
	_ = s.Add(0, 1, 10.9, 0.7)
	n, err := FilterKnownDistances(s, []float64{10, 17.49}, 0.3, ConstraintSnap)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("affected = %d, want 1", n)
	}
	m, _ := s.Get(0, 1)
	if m.Distance != 10 {
		t.Errorf("snapped distance = %v, want 10", m.Distance)
	}
	if m.Weight != 0.7 {
		t.Errorf("weight changed on snap: %v", m.Weight)
	}
}

func TestFilterKnownDistancesDownweight(t *testing.T) {
	s := mustSet(t, 2)
	_ = s.Add(0, 1, 13, 1)
	if _, err := FilterKnownDistances(s, []float64{10}, 0.3, ConstraintDownweight); err != nil {
		t.Fatal(err)
	}
	m, _ := s.Get(0, 1)
	if m.Weight != 0.5 {
		t.Errorf("weight = %v, want 0.5", m.Weight)
	}
	if m.Distance != 13 {
		t.Errorf("distance changed on downweight: %v", m.Distance)
	}
}

func TestFilterKnownDistancesErrors(t *testing.T) {
	s := mustSet(t, 2)
	_ = s.Add(0, 1, 10, 1)
	if _, err := FilterKnownDistances(s, nil, 0.3, ConstraintDrop); err == nil {
		t.Error("want error for empty allowed set")
	}
	if _, err := FilterKnownDistances(s, []float64{10}, -1, ConstraintDrop); err == nil {
		t.Error("want error for negative tolerance")
	}
	if _, err := FilterKnownDistances(s, []float64{10}, 0.3, ConstraintAction(0)); err == nil {
		t.Error("want error for invalid action")
	}
}

// TestFilterKnownDistancesImprovesGridData: injecting gross outliers into a
// grid measurement set and filtering against the known grid distances must
// remove exactly the outliers.
func TestFilterKnownDistancesImprovesGridData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dep := deploy.PaperGrid()
	s, err := Generate(dep, 22, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	clean := s.Len()
	// Corrupt 10 measurements by +3.5 m — an offset that lands every grid
	// distance in a gap of the allowed set. (An outlier that happens to
	// coincide with *another* valid grid distance is undetectable by this
	// filter: grid-constraint checking aliases, which is why the paper
	// pairs it with the other consistency checks.)
	all := s.All()
	for k := 0; k < 10; k++ {
		m := all[k*7]
		_ = s.Add(m.Pair.Lo, m.Pair.Hi, m.Distance+3.5, m.Weight)
	}
	// Fine merge tolerance: the grid's 10 m and 10.30 m neighbor distances
	// must stay distinct entries.
	allowed := KnownDistances(dep, 22, 0.1)
	n, err := FilterKnownDistances(s, allowed, 0.3, ConstraintDrop)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 || n > 14 { // the 10 outliers plus at most a few 3σ tails
		t.Errorf("filtered %d measurements, want 10-14", n)
	}
	if s.Len() < clean-14 {
		t.Errorf("filter removed too many: %d of %d", clean-s.Len(), clean)
	}
	// Remaining errors must all be small.
	errs, err := s.Errors(dep)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		if math.Abs(e) > 1 {
			t.Fatalf("large error %v survived the constraint filter", e)
		}
	}
}

func TestNearestSorted(t *testing.T) {
	xs := []float64{1, 5, 10}
	for _, tc := range []struct{ v, want float64 }{
		{0, 1}, {1, 1}, {2.9, 1}, {3.1, 5}, {7, 5}, {8, 10}, {42, 10},
	} {
		if got := nearestSorted(xs, tc.v); got != tc.want {
			t.Errorf("nearestSorted(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}
