package measure

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"resilientloc/internal/deploy"
	"resilientloc/internal/scratch"
)

func mustSetIn(t *testing.T, ws *scratch.Arena, n int) *Set {
	t.Helper()
	s, err := NewSetIn(ws, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNewSetInPooledSetsAreIndependent: sets borrowed from one arena in one
// trial are distinct, and after Release the next trial's sets start empty
// and unindexed. Trial 1 builds its first set out of pair order, which
// indexes it, and its second in order; trial 2 reuses both, building the
// once-indexed one in order and the other out of order. Every read must
// match the plain model throughout.
func TestNewSetInPooledSetsAreIndependent(t *testing.T) {
	ws := scratch.New()
	build := func(where string, s *Set, pairs [][2]int) *setModel {
		t.Helper()
		md := newSetModel(s.N())
		for k, p := range pairs {
			d := float64(10 + k)
			if err := s.Add(p[0], p[1], d, 1); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			md.add(p[0], p[1], d, 1)
		}
		checkSetMatchesModel(t, where, s, md)
		return md
	}
	inOrder := [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 4}, {3, 4}}
	outOfOrder := [][2]int{{3, 4}, {0, 1}, {4, 1}, {2, 0}}

	a := mustSetIn(t, ws, 5)
	b := mustSetIn(t, ws, 6)
	if a == b {
		t.Fatal("two sets from one trial alias")
	}
	amd := build("trial 1, out of order", a, outOfOrder)
	bmd := build("trial 1, in order", b, inOrder[:3])
	checkSetMatchesModel(t, "trial 1, first set after the second was built", a, amd)
	checkSetMatchesModel(t, "trial 1, second set", b, bmd)

	ws.Release()
	a2 := mustSetIn(t, ws, 5)
	b2 := mustSetIn(t, ws, 6)
	if a2 != a || b2 != b {
		t.Fatal("Release did not rewind the set pool")
	}
	for _, s := range []*Set{a2, b2} {
		if s.Len() != 0 || s.pos != nil {
			t.Fatalf("reused set holds %d stale measurements, index %v", s.Len(), s.pos)
		}
	}
	checkSetMatchesModel(t, "trial 2, empty", a2, newSetModel(5))
	build("trial 2, in order after out of order", a2, inOrder)
	build("trial 2, out of order after in order", b2, outOfOrder)
	if c := mustSetIn(t, ws, 4); c == a2 || c == b2 {
		t.Fatal("a third set aliases an earlier one")
	}
}

// TestNewSetInNilAndBadCounts: NewSetIn with a nil arena is NewSet, and a
// non-positive node count fails exactly as NewSet fails, with or without an
// arena.
func TestNewSetInNilAndBadCounts(t *testing.T) {
	ws := scratch.New()
	for _, n := range []int{-3, 0, 1, 7} {
		want, wantErr := NewSet(n)
		for _, arena := range []*scratch.Arena{nil, ws} {
			got, err := NewSetIn(arena, n)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("NewSetIn(%v, %d): error %v, NewSet %v", arena != nil, n, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("NewSetIn(%v, %d) = %+v, NewSet %+v", arena != nil, n, got, want)
			}
		}
	}
}

// TestGenerateInMatchesGenerate: GenerateIn on a reused arena and on a nil
// one gives Generate's set and random stream, trial after trial.
func TestGenerateInMatchesGenerate(t *testing.T) {
	ws := scratch.New()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4; trial++ {
		dep := deploy.Town(rng)
		for _, maxRange := range []float64{22, 9} {
			seed := rng.Int63()
			wantRNG := rand.New(rand.NewSource(seed))
			want, err := Generate(dep, maxRange, GaussianNoise, wantRNG)
			if err != nil {
				t.Fatal(err)
			}
			next := wantRNG.Int63()
			for _, arena := range []*scratch.Arena{ws, nil} {
				name := fmt.Sprintf("trial %d, maxRange %v, arena %v", trial, maxRange, arena != nil)
				gotRNG := rand.New(rand.NewSource(seed))
				got, err := GenerateIn(arena, dep, maxRange, GaussianNoise, gotRNG)
				if err != nil {
					t.Fatal(err)
				}
				sameGenerate(t, name, got, want)
				if g := gotRNG.Int63(); g != next {
					t.Fatalf("%s: next draw %d, Generate %d", name, g, next)
				}
			}
		}
		ws.Release()
	}
}

// TestMeasurementsStopsEarly: the sequence honors a break. (That it yields
// what All copies, in order, checkSetMatchesModel checks.)
func TestMeasurementsStopsEarly(t *testing.T) {
	s, err := Generate(deploy.PaperGrid(), 12, GaussianNoise, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range s.Measurements() {
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Errorf("loop saw %d measurements before its break, want 3", seen)
	}
}
