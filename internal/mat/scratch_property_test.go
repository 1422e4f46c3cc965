package mat

import (
	"math"
	"math/rand"
	"testing"

	"resilientloc/internal/scratch"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEigenSymInMatchesFresh: the eigendecomposition with arena
// workspaces must match the allocating path bit for bit.
func TestEigenSymInMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	ws := scratch.New()
	for iter := 0; iter < 25; iter++ {
		n := 2 + rng.Intn(10)
		a := randomSPD(n, rng)
		wantVals, wantVecs, err := EigenSymIn(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		gotVals, gotVecs, err := EigenSymIn(ws, a)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(wantVals, gotVals) || !bitsEqual(wantVecs.data, gotVecs.data) {
			t.Fatalf("iter %d: arena eigendecomposition differs from fresh", iter)
		}
		ws.Release()
	}
}
