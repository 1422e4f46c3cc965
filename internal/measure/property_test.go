package measure

import (
	"math"
	"math/rand"
	"testing"

	"resilientloc/internal/deploy"
)

// Property: after an arbitrary sequence of Adds and removals, the Set's
// Len, All and Neighbors views stay mutually consistent.
func TestPropertySetViewConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(10)
		s, err := NewSet(n)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 200; op++ {
			i := rng.Intn(n)
			j := rng.Intn(n)
			if i == j {
				continue
			}
			if rng.Float64() < 0.7 {
				_ = s.Add(i, j, rng.Float64()*20+0.1, 1)
			} else {
				s = rebuilt(t, s, MkPair(i, j))
			}
		}
		all := s.All()
		if len(all) != s.Len() {
			t.Fatalf("All() length %d != Len() %d", len(all), s.Len())
		}
		degSum := 0
		for i := 0; i < n; i++ {
			deg := len(s.Neighbors(i))
			degSum += deg
			for _, nb := range s.Neighbors(i) {
				if _, ok := s.Get(i, nb); !ok {
					t.Fatalf("neighbor (%d,%d) has no measurement", i, nb)
				}
			}
		}
		if degSum != 2*s.Len() {
			t.Fatalf("degree sum %d != 2·Len %d", degSum, 2*s.Len())
		}
	}
}

// Property: Merge never invents pairs — every output pair exists in some
// direction of the input — and bidirectional-consistent pairs average the
// two directions.
func TestPropertyMergeSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(8)
		directed := make(map[[2]int]float64)
		for k := 0; k < 30; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			directed[[2]int{i, j}] = rng.Float64()*20 + 0.1
		}
		s, err := Merge(n, directed, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range s.All() {
			fwd, fok := directed[[2]int{m.Pair.Lo, m.Pair.Hi}]
			rev, rok := directed[[2]int{m.Pair.Hi, m.Pair.Lo}]
			switch {
			case fok && rok:
				want := (fwd + rev) / 2
				if math.Abs(m.Distance-want) > 1e-12 {
					t.Fatalf("bidir pair distance %v, want %v", m.Distance, want)
				}
			case fok:
				if m.Distance != fwd {
					t.Fatalf("unidir pair distance %v, want %v", m.Distance, fwd)
				}
			case rok:
				if m.Distance != rev {
					t.Fatalf("unidir pair distance %v, want %v", m.Distance, rev)
				}
			default:
				t.Fatalf("merged pair %v absent from input", m.Pair)
			}
		}
	}
}

// Property: Generate + Errors round-trip — the signed error of every
// generated measurement equals measurement minus true distance, and no
// generated distance is non-positive.
func TestPropertyGenerateErrorsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		dep, err := deploy.UniformRandom(5+rng.Intn(10), 50, 50, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Generate(dep, 30, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		errs, err := s.Errors(dep)
		if err != nil {
			t.Fatal(err)
		}
		if len(errs) != s.Len() {
			t.Fatalf("errors length %d != set length %d", len(errs), s.Len())
		}
		for i, m := range s.All() {
			if m.Distance <= 0 {
				t.Fatalf("non-positive generated distance %v", m.Distance)
			}
			truth := dep.Positions[m.Pair.Lo].Dist(dep.Positions[m.Pair.Hi])
			if math.Abs(errs[i]-(m.Distance-truth)) > 1e-12 {
				t.Fatalf("error mismatch at %d", i)
			}
		}
	}
}

// Property: Sparsify to k keeps exactly min(k, Len) measurements, all of
// which existed before.
func TestPropertySparsifySubset(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dep := deploy.PaperGrid()
	for trial := 0; trial < 20; trial++ {
		s, err := Generate(dep, 22, 0.3, rng)
		if err != nil {
			t.Fatal(err)
		}
		before := rebuilt(t, s)
		k := rng.Intn(s.Len() + 10)
		Sparsify(s, k, rng)
		want := k
		if before.Len() < k {
			want = before.Len()
		}
		if s.Len() != want {
			t.Fatalf("Len = %d, want %d", s.Len(), want)
		}
		for _, m := range s.All() {
			bm, ok := before.Get(m.Pair.Lo, m.Pair.Hi)
			if !ok || bm != m {
				t.Fatalf("sparsified set contains new/changed measurement %+v", m)
			}
		}
	}
}

// Property: Connected agrees with a depth-first search over Neighbors on
// random graphs, connected or not, with isolated nodes, down to n = 1; the
// empty set counts as connected.
func TestPropertyConnectedMatchesSearch(t *testing.T) {
	if !(&Set{}).Connected() {
		t.Error("n=0: want connected")
	}
	rng := rand.New(rand.NewSource(31))
	seen := map[bool]int{}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(12)
		s, err := NewSet(n)
		if err != nil {
			t.Fatal(err)
		}
		density := rng.Float64() * 0.6
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < density {
					_ = s.Add(i, j, 1+rng.Float64(), 1)
				}
			}
		}
		for op := 0; op < n/2; op++ {
			if i, j := rng.Intn(n), rng.Intn(n); i != j {
				s = rebuilt(t, s, MkPair(i, j))
			}
		}
		want := searchConnected(s)
		seen[want]++
		if got := s.Connected(); got != want {
			t.Fatalf("trial %d (n=%d, %d pairs): Connected() = %v, search says %v", trial, n, s.Len(), got, want)
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("generator covered only one outcome: %v", seen)
	}
}

// searchConnected is a depth-first search from node 0 over Neighbors.
func searchConnected(s *Set) bool {
	visited := make([]bool, s.N())
	visited[0] = true
	stack, count := []int{0}, 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range s.Neighbors(v) {
			if !visited[w] {
				visited[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == s.N()
}

func TestConnectedAllocatesOnlyItsTable(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s, err := Generate(deploy.Town(rng), 22, GaussianNoise, rng)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Connected() }); allocs > 1 {
		t.Errorf("Connected allocates %v times per call, want ≤ 1", allocs)
	}
}
