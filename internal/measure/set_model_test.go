package measure

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"resilientloc/internal/deploy"
)

// setModel is the plain form of a Set: a map from pair to measurement plus
// the pairs in insertion order.
type setModel struct {
	n  int
	m  map[Pair]Measurement
	ks []Pair
}

func newSetModel(n int) *setModel { return &setModel{n: n, m: make(map[Pair]Measurement)} }

func (md *setModel) add(i, j int, d, w float64) {
	if w <= 0 {
		w = 1
	}
	p := MkPair(i, j)
	if _, ok := md.m[p]; !ok {
		md.ks = append(md.ks, p)
	}
	md.m[p] = Measurement{Pair: p, Distance: d, Weight: w}
}

func (md *setModel) remove(i, j int) {
	p := MkPair(i, j)
	if _, ok := md.m[p]; !ok {
		return
	}
	delete(md.m, p)
	md.ks = slices.DeleteFunc(md.ks, func(q Pair) bool { return q == p })
}

// sparsify removes, one by one, the pairs a shuffle of the insertion order
// puts past keep.
func (md *setModel) sparsify(keep int, rng *rand.Rand) {
	if keep >= len(md.ks) {
		return
	}
	pairs := slices.Clone(md.ks)
	rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	for _, p := range pairs[keep:] {
		md.remove(p.Lo, p.Hi)
	}
}

func (md *setModel) neighbors(i int) []int {
	var out []int
	for p := range md.m {
		switch i {
		case p.Lo:
			out = append(out, p.Hi)
		case p.Hi:
			out = append(out, p.Lo)
		}
	}
	slices.Sort(out)
	return out
}

func (md *setModel) connected() bool {
	seen := make([]bool, md.n)
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range md.neighbors(v) {
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return !slices.Contains(seen, false)
}

func sameMeasurement(a, b Measurement) bool {
	return a.Pair == b.Pair && math.Float64bits(a.Distance) == math.Float64bits(b.Distance) &&
		math.Float64bits(a.Weight) == math.Float64bits(b.Weight)
}

// checkSetMatchesModel compares every read of s with md.
func checkSetMatchesModel(t *testing.T, where string, s *Set, md *setModel) {
	t.Helper()
	if s.Len() != len(md.ks) {
		t.Fatalf("%s: Len %d, model %d", where, s.Len(), len(md.ks))
	}
	all := s.All()
	if len(all) != len(md.ks) {
		t.Fatalf("%s: All has %d measurements, model %d", where, len(all), len(md.ks))
	}
	for k, p := range md.ks {
		if !sameMeasurement(all[k], md.m[p]) {
			t.Fatalf("%s: All[%d] = %+v, model %+v", where, k, all[k], md.m[p])
		}
	}
	if !slices.EqualFunc(slices.Collect(s.Measurements()), all, sameMeasurement) {
		t.Fatalf("%s: Measurements disagrees with All", where)
	}
	for i := 0; i < md.n; i++ {
		if got, want := s.Neighbors(i), md.neighbors(i); !slices.Equal(got, want) {
			t.Fatalf("%s: Neighbors(%d) = %v, model %v", where, i, got, want)
		}
		for j := 0; j < md.n; j++ {
			if i == j {
				continue
			}
			got, ok := s.Get(i, j)
			want, wok := md.m[MkPair(i, j)]
			if ok != wok || ok && !sameMeasurement(got, want) {
				t.Fatalf("%s: Get(%d,%d) = %+v %v, model %+v %v", where, i, j, got, ok, want, wok)
			}
		}
	}
	if got, want := s.Connected(), md.connected(); got != want {
		t.Fatalf("%s: Connected %v, model %v", where, got, want)
	}
}

// TestSetMatchesModelIdentical runs random operation sequences on a Set and
// on a map-plus-ordered-slice model and requires every read to agree, bit
// for bit and in order. The sequences cover runs of Adds in ascending pair
// order (with replacements and removals that keep the set sorted), an Add
// out of that order in the middle of a run, a removal followed by a re-Add
// of the same pair, and Sparsify. A removal rebuilds the set without the
// pair, in insertion order.
func TestSetMatchesModelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(10)
		s := mustSet(t, n)
		md := newSetModel(n)
		add := func(i, j int) {
			d, w := rng.Float64()*20+0.1, rng.Float64()*2-0.5
			if err := s.Add(i, j, d, w); err != nil {
				t.Fatal(err)
			}
			md.add(i, j, d, w)
		}
		remove := func(i, j int) {
			s = rebuilt(t, s, MkPair(i, j))
			md.remove(i, j)
		}
		randomPair := func() (int, int) {
			i := rng.Intn(n)
			j := (i + 1 + rng.Intn(n-1)) % n
			return i, j
		}
		existing := func() (int, int, bool) {
			if len(md.ks) == 0 {
				return 0, 0, false
			}
			p := md.ks[rng.Intn(len(md.ks))]
			if rng.Intn(2) == 0 {
				return p.Hi, p.Lo, true
			}
			return p.Lo, p.Hi, true
		}

		// An ascending run: each new pair is after every stored one, and
		// replacements and removals of stored pairs keep the set sorted. It
		// ends early, at a random point, with an out-of-order Add in two
		// trials of three.
		breakAt := -1
		if trial%3 != 0 {
			breakAt = rng.Intn(n * (n - 1) / 2)
		}
		step := 0
	run:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if step == breakAt {
					break run
				}
				step++
				if rng.Float64() < 0.6 {
					add(i, j)
				}
				if i, j, ok := existing(); ok && rng.Float64() < 0.2 {
					add(i, j)
				}
				if i, j, ok := existing(); ok && rng.Float64() < 0.05 {
					remove(i, j)
				}
			}
		}
		checkSetMatchesModel(t, "after the ascending run", s, md)
		if breakAt >= 0 {
			add(randomPair())
			checkSetMatchesModel(t, "after an out-of-order Add", s, md)
		}

		// Arbitrary operations.
		for op := 0; op < 40; op++ {
			switch r := rng.Float64(); {
			case r < 0.5:
				add(randomPair())
			case r < 0.65:
				if i, j, ok := existing(); ok {
					add(i, j)
				}
			case r < 0.85:
				if i, j, ok := existing(); ok {
					remove(i, j)
					if rng.Intn(2) == 0 {
						add(i, j)
					}
				}
			case r < 0.9:
				keep := rng.Intn(len(md.ks) + 2)
				seed := rng.Int63()
				Sparsify(s, keep, rand.New(rand.NewSource(seed)))
				md.sparsify(keep, rand.New(rand.NewSource(seed)))
			default:
				remove(randomPair())
			}
			checkSetMatchesModel(t, "during arbitrary operations", s, md)
		}
	}
}

// TestSetConcurrentReads reads one shared Set from many goroutines at once,
// for a set built in ascending pair order and for one built out of order;
// under the race detector it fails if any read writes.
func TestSetConcurrentReads(t *testing.T) {
	dep := deploy.PaperGrid()
	sorted, err := Generate(dep, 22, GaussianNoise, rand.New(rand.NewSource(29)))
	if err != nil {
		t.Fatal(err)
	}
	shuffled := mustSet(t, sorted.N())
	all := sorted.All()
	rand.New(rand.NewSource(31)).Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	for _, m := range all {
		if err := shuffled.Add(m.Pair.Hi, m.Pair.Lo, m.Distance, m.Weight); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*Set{sorted, shuffled} {
		wantAll := s.All()
		wantConnected := s.Connected()
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, m := range wantAll[g:] {
					if got, ok := s.Get(m.Pair.Hi, m.Pair.Lo); !ok || !sameMeasurement(got, m) {
						errs <- "Get disagrees with All"
						return
					}
				}
				if !slices.EqualFunc(s.All(), wantAll, sameMeasurement) {
					errs <- "All changed"
					return
				}
				for i := 0; i < s.N(); i++ {
					for _, j := range s.Neighbors(i) {
						if _, ok := s.Get(i, j); !ok {
							errs <- "a neighbor has no measurement"
							return
						}
					}
				}
				if s.Connected() != wantConnected {
					errs <- "Connected changed"
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}
