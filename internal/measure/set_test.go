package measure

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"resilientloc/internal/deploy"
	"resilientloc/internal/stats"
)

func mustSet(t *testing.T, n int) *Set {
	t.Helper()
	s, err := NewSet(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rebuilt returns a new set holding s's measurements in insertion order,
// minus the pairs in skip: the copy or removal a test needs, built from
// Add alone.
func rebuilt(t *testing.T, s *Set, skip ...Pair) *Set {
	t.Helper()
	c := mustSet(t, s.N())
	for m := range s.Measurements() {
		if slices.Contains(skip, m.Pair) {
			continue
		}
		if err := c.Add(m.Pair.Lo, m.Pair.Hi, m.Distance, m.Weight); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestMkPair(t *testing.T) {
	p := MkPair(5, 2)
	if p.Lo != 2 || p.Hi != 5 {
		t.Errorf("MkPair(5,2) = %+v", p)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic for self-pair")
		}
	}()
	MkPair(3, 3)
}

func TestSetAddGet(t *testing.T) {
	s := mustSet(t, 5)
	if err := s.Add(1, 3, 10.5, 0); err != nil {
		t.Fatal(err)
	}
	m, ok := s.Get(3, 1) // order-insensitive
	if !ok || m.Distance != 10.5 || m.Weight != 1 {
		t.Errorf("Get = %+v, ok=%v", m, ok)
	}
	// Replace with explicit weight.
	if err := s.Add(3, 1, 11, 0.5); err != nil {
		t.Fatal(err)
	}
	m, _ = s.Get(1, 3)
	if m.Distance != 11 || m.Weight != 0.5 {
		t.Errorf("after replace: %+v", m)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if _, ok := s.Get(1, 2); ok {
		t.Error("Get found a pair never added")
	}
}

func TestSetAddErrors(t *testing.T) {
	s := mustSet(t, 3)
	cases := []struct {
		name string
		i, j int
		d    float64
	}{
		{"out of range", 0, 5, 1},
		{"negative index", -1, 1, 1},
		{"self pair", 1, 1, 1},
		{"zero distance", 0, 1, 0},
		{"negative distance", 0, 1, -2},
		{"NaN", 0, 1, math.NaN()},
		{"Inf", 0, 1, math.Inf(1)},
	}
	for _, tc := range cases {
		if err := s.Add(tc.i, tc.j, tc.d, 1); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	if _, err := NewSet(0); err == nil {
		t.Error("want error for n=0")
	}
}

// TestSetAddRejectsNonFiniteWeight: one stored NaN or infinite weight would
// make every LSS objective over the set non-finite, so Add refuses it and
// leaves the set unchanged.
func TestSetAddRejectsNonFiniteWeight(t *testing.T) {
	s := mustSet(t, 3)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.Add(0, 1, 5, w); err == nil {
			t.Errorf("weight %v: want error", w)
		}
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after rejected adds, want 0", s.Len())
	}
}

func TestSetNeighborsDegree(t *testing.T) {
	s := mustSet(t, 5)
	_ = s.Add(0, 1, 1, 1)
	_ = s.Add(0, 2, 1, 1)
	_ = s.Add(3, 0, 1, 1)
	nb := s.Neighbors(0)
	want := []int{1, 2, 3}
	if len(nb) != 3 {
		t.Fatalf("neighbors = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Errorf("neighbors = %v, want %v", nb, want)
		}
	}
	if d0, d4 := len(s.Neighbors(0)), len(s.Neighbors(4)); d0 != 3 || d4 != 0 {
		t.Errorf("degrees wrong: %d, %d", d0, d4)
	}
}

func TestSetConnected(t *testing.T) {
	s := mustSet(t, 4)
	_ = s.Add(0, 1, 1, 1)
	_ = s.Add(1, 2, 1, 1)
	if s.Connected() {
		t.Error("node 3 is isolated; should be disconnected")
	}
	_ = s.Add(2, 3, 1, 1)
	if !s.Connected() {
		t.Error("chain should be connected")
	}
}

func TestSetErrors(t *testing.T) {
	dep := deploy.PaperGrid()
	s := mustSet(t, dep.N())
	truth := dep.Positions[0].Dist(dep.Positions[1])
	_ = s.Add(0, 1, truth+0.5, 1)
	errs, err := s.Errors(dep)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 1 || math.Abs(errs[0]-0.5) > 1e-12 {
		t.Errorf("errors = %v, want [0.5]", errs)
	}
	bad := mustSet(t, 3)
	if _, err := bad.Errors(dep); err == nil {
		t.Error("want error for node-count mismatch")
	}
}

func TestRawAddAndFilter(t *testing.T) {
	r, err := NewRaw(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{10.0, 10.1, 9.9, 25.0, 10.05} { // one outlier
		if err := r.Add(0, 1, d); err != nil {
			t.Fatal(err)
		}
	}
	if r.TotalReadings() != 5 {
		t.Errorf("TotalReadings = %d", r.TotalReadings())
	}
	med := r.Filter()
	if math.Abs(med[[2]int{0, 1}]-10.05) > 1e-9 {
		t.Errorf("median = %v, want 10.05", med[[2]int{0, 1}])
	}
}

func TestRawAddErrors(t *testing.T) {
	r, _ := NewRaw(3)
	if err := r.Add(0, 0, 1); err == nil {
		t.Error("want error for self-pair")
	}
	if err := r.Add(0, 9, 1); err == nil {
		t.Error("want error for out-of-range")
	}
	if err := r.Add(0, 1, -1); err == nil {
		t.Error("want error for negative distance")
	}
	if _, err := NewRaw(0); err == nil {
		t.Error("want error for n=0")
	}
}

func TestMergeBidirectionalConsistent(t *testing.T) {
	directed := map[[2]int]float64{
		{0, 1}: 10.2, {1, 0}: 10.0, // consistent: kept, averaged
		{1, 2}: 8.0, {2, 1}: 12.0, // inconsistent: dropped
		{2, 3}: 5.0,               // unidirectional: kept at reduced weight
		{3, 4}: 10.5, {4, 3}: 9.5, // exactly 1 m apart: kept
		{4, 5}: 11 + 1e-6, {5, 4}: 10.0, // 1 m + 1e-6 apart: dropped
	}
	s, err := Merge(6, directed, false)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := s.Get(0, 1)
	if !ok || math.Abs(m.Distance-10.1) > 1e-9 || m.Weight != 1 {
		t.Errorf("bidir pair = %+v, ok=%v", m, ok)
	}
	if _, ok := s.Get(1, 2); ok {
		t.Error("inconsistent pair retained")
	}
	m, ok = s.Get(2, 3)
	if !ok || m.Weight != 0.5 {
		t.Errorf("unidirectional pair = %+v, ok=%v", m, ok)
	}
	m, ok = s.Get(3, 4)
	if !ok || m.Distance != 10 || m.Weight != 1 {
		t.Errorf("pair 1 m apart = %+v, ok=%v, want kept at 10 m", m, ok)
	}
	if _, ok := s.Get(4, 5); ok {
		t.Error("pair 1 m + 1e-6 apart retained")
	}
}

func TestMergeRequireBidirectional(t *testing.T) {
	directed := map[[2]int]float64{
		{0, 1}: 10.0, {1, 0}: 10.1,
		{2, 3}: 5.0,
	}
	s, err := Merge(4, directed, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 (unidirectional dropped)", s.Len())
	}
}

func TestMergeDeterministic(t *testing.T) {
	directed := map[[2]int]float64{
		{0, 1}: 1, {2, 3}: 2, {1, 2}: 3, {0, 3}: 4,
	}
	a, _ := Merge(4, directed, false)
	b, _ := Merge(4, directed, false)
	am, bm := a.All(), b.All()
	for i := range am {
		if am[i] != bm[i] {
			t.Fatal("merge order nondeterministic")
		}
	}
}

func TestGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dep := deploy.PaperGrid()
	s, err := Generate(dep, 22, GaussianNoise, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every measured pair must be within range; every in-range pair
	// measured.
	count := 0
	for i := 0; i < dep.N(); i++ {
		for j := i + 1; j < dep.N(); j++ {
			d := dep.Positions[i].Dist(dep.Positions[j])
			_, ok := s.Get(i, j)
			if d <= 22 && !ok {
				t.Fatalf("in-range pair (%d,%d) missing", i, j)
			}
			if d > 22 && ok {
				t.Fatalf("out-of-range pair (%d,%d) measured", i, j)
			}
			if ok {
				count++
			}
		}
	}
	if s.Len() != count {
		t.Errorf("Len = %d, want %d", s.Len(), count)
	}
	// Error distribution ≈ N(0, 0.33).
	errs, err := s.Errors(dep)
	if err != nil {
		t.Fatal(err)
	}
	sd, _ := stats.StdDev(errs)
	if math.Abs(sd-GaussianNoise) > 0.05 {
		t.Errorf("error sd = %v, want ≈%v", sd, GaussianNoise)
	}
}

func TestAugment(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dep := deploy.PaperGrid()
	s := mustSet(t, dep.N())
	_ = s.Add(0, 1, 10, 1)
	before := s.Len()
	added, err := Augment(s, dep, 22, GaussianNoise, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if added != 50 {
		t.Errorf("added = %d, want 50", added)
	}
	if s.Len() != before+50 {
		t.Errorf("Len = %d, want %d", s.Len(), before+50)
	}
	// Requesting more than available adds only what exists.
	huge, err := Augment(s, dep, 22, GaussianNoise, 1<<20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if huge <= 0 {
		t.Error("second augment added nothing")
	}
	if _, err := Augment(mustSet(t, 3), dep, 22, 0.33, 5, rng); err == nil {
		t.Error("want error for node-count mismatch")
	}
}

func TestSparsify(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dep := deploy.PaperGrid()
	s, _ := Generate(dep, 22, GaussianNoise, rng)
	Sparsify(s, 100, rng)
	if s.Len() != 100 {
		t.Errorf("Len = %d, want 100", s.Len())
	}
	// Sparsify to more than present: no-op.
	Sparsify(s, 1000, rng)
	if s.Len() != 100 {
		t.Errorf("Len = %d after no-op sparsify, want 100", s.Len())
	}
}
