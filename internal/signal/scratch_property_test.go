package signal

import (
	"math"
	"math/rand"
	"testing"

	"resilientloc/internal/scratch"
)

// sameF64 reports bitwise equality of two float64 slices (NaNs and signed
// zeros included): the scratch-reuse contract is bit-identical output, not
// approximate equality.
func sameF64(a, b []float64) bool {
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

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDetectInMatchesDetect: across randomized waveforms, the arena-backed
// detection path must produce exactly the hits of a nil (allocating) arena, with
// the arena reused (and therefore dirty) between iterations.
func TestDetectInMatchesDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	det := DefaultDFTDetector()
	ws := scratch.New()
	for iter := 0; iter < 40; iter++ {
		cfg := DefaultSynth()
		cfg.NoiseStd = float64(rng.Intn(1200))
		cfg.Chirps = 1 + rng.Intn(5)
		cfg.Lead = 100 + rng.Intn(400)
		wave, err := cfg.Generate(rng)
		if err != nil {
			t.Fatal(err)
		}
		want := det.DetectIn(nil, wave)
		got := det.DetectIn(ws, wave)
		if !sameInts(want, got) {
			t.Fatalf("iter %d: arena-backed DetectIn %v != fresh %v", iter, got, want)
		}
		if (want == nil) != (got == nil) {
			t.Fatalf("iter %d: nilness differs", iter)
		}
		ws.Release()
	}
}

// TestFilterSeriesInMatchesFilterSeries checks the flattened single-band
// power series the detector runs against the reference two-band filter
// (SlidingDFT.Filter, sample by sample), bit for bit.
func TestFilterSeriesInMatchesFilterSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	var f SlidingDFT
	for iter := 0; iter < 20; iter++ {
		n := 64 + rng.Intn(4000)
		wave := make([]float64, n)
		for i := range wave {
			wave[i] = rng.NormFloat64() * 500
		}
		f.Reset()
		wantP4, wantP6 := make([]float64, n), make([]float64, n)
		for i, s := range wave {
			wantP4[i], wantP6[i] = f.Filter(s)
		}
		gotP4, gotP6 := make([]float64, n), make([]float64, n)
		filterBand4Series(gotP4, wave)
		filterBand6Series(gotP6, wave)
		if !sameF64(wantP4, gotP4) || !sameF64(wantP6, gotP6) {
			t.Fatalf("iter %d: single-band series differ from the two-band filter", iter)
		}
	}
}

// TestGenerateIntoMatchesGenerate: synthesizing into a reused (dirty) buffer
// from a precomputed template must consume the RNG identically and produce
// bit-identical samples, including signed zeros in the noise floor.
func TestGenerateIntoMatchesGenerate(t *testing.T) {
	ws := scratch.New()
	for iter := 0; iter < 20; iter++ {
		cfg := DefaultSynth()
		cfg.NoiseStd = float64(iter * 60)
		cfg.Chirps = 1 + iter%5
		tmpl, err := cfg.Template()
		if err != nil {
			t.Fatal(err)
		}
		want, err := cfg.Generate(rand.New(rand.NewSource(int64(500 + iter))))
		if err != nil {
			t.Fatal(err)
		}
		out := ws.Float64s(cfg.TotalLen())
		if err := cfg.GenerateInto(out, tmpl, rand.New(rand.NewSource(int64(500+iter)))); err != nil {
			t.Fatal(err)
		}
		if !sameF64(want, out) {
			t.Fatalf("iter %d: GenerateInto differs from Generate", iter)
		}
		ws.Release()
	}
}
