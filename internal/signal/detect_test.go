package signal

import (
	"math/rand"
	"testing"
)

func TestNewAccumulator(t *testing.T) {
	if _, err := NewAccumulator(0); err == nil {
		t.Error("want error for zero size")
	}
	a, err := NewAccumulator(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.samples) != 10 || a.chirps != 0 {
		t.Errorf("fresh accumulator wrong: len=%d chirps=%d", len(a.samples), a.chirps)
	}
}

func TestAccumulatorAddRecording(t *testing.T) {
	a, _ := NewAccumulator(4)
	if err := a.AddRecording([]bool{true, false, true, false}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddRecording([]bool{true, false, false, true}); err != nil {
		t.Fatal(err)
	}
	want := []uint8{2, 0, 1, 1}
	for i, w := range want {
		if a.Samples()[i] != w {
			t.Errorf("cell %d = %d, want %d", i, a.Samples()[i], w)
		}
	}
	if a.chirps != 2 {
		t.Errorf("chirps = %d, want 2", a.chirps)
	}
	if err := a.AddRecording([]bool{true}); err == nil {
		t.Error("want error for wrong length")
	}
}

func TestAccumulatorSaturation(t *testing.T) {
	a, _ := NewAccumulator(1)
	for i := 0; i < MaxAccumulated; i++ {
		if err := a.AddRecording([]bool{true}); err != nil {
			t.Fatalf("recording %d: %v", i, err)
		}
	}
	if a.Samples()[0] != MaxAccumulated {
		t.Errorf("cell = %d, want %d", a.Samples()[0], MaxAccumulated)
	}
	// The 16th recording must be rejected: the 4-bit buffer is full.
	if err := a.AddRecording([]bool{true}); err == nil {
		t.Error("want error at capacity")
	}
}

func TestAccumulatorReset(t *testing.T) {
	a, _ := NewAccumulator(2)
	_ = a.AddRecording([]bool{true, true})
	a.Reset()
	if a.chirps != 0 || a.Samples()[0] != 0 || a.Samples()[1] != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestDetectSignalBasic(t *testing.T) {
	// Signal occupies offsets 5..12 with strong accumulation.
	samples := make([]uint8, 20)
	for i := 5; i <= 12; i++ {
		samples[i] = 8
	}
	got := DetectSignal(samples, 4, 8, 2)
	if got != 5 {
		t.Errorf("DetectSignal = %d, want 5", got)
	}
}

func TestDetectSignalAtZero(t *testing.T) {
	samples := []uint8{5, 5, 5, 5, 0, 0, 0, 0}
	if got := DetectSignal(samples, 3, 4, 2); got != 0 {
		t.Errorf("DetectSignal = %d, want 0", got)
	}
}

func TestDetectSignalNone(t *testing.T) {
	samples := make([]uint8, 50)
	samples[7] = 9 // single spike: below k-of-m
	if got := DetectSignal(samples, 3, 8, 2); got != -1 {
		t.Errorf("DetectSignal = %d, want -1", got)
	}
}

func TestDetectSignalRequiresWindowStartHot(t *testing.T) {
	// k hot samples exist in a window, but the window start must itself be
	// hot per Figure 3 (samples[i-m+1] ≥ T).
	samples := []uint8{0, 0, 3, 3, 3, 0, 0, 0, 0, 0}
	got := DetectSignal(samples, 3, 5, 2)
	// Window starting at 2 contains 3 hot and starts hot.
	if got != 2 {
		t.Errorf("DetectSignal = %d, want 2", got)
	}
}

func TestDetectSignalIgnoresSparseNoise(t *testing.T) {
	// Uncorrelated noise: isolated accumulated counts of 1 scattered about,
	// below the T=2 threshold that multi-chirp correlation would produce.
	rng := rand.New(rand.NewSource(3))
	samples := make([]uint8, 500)
	for i := range samples {
		if rng.Float64() < 0.2 {
			samples[i] = 1
		}
	}
	if got := DetectSignal(samples, 6, 32, 2); got != -1 {
		t.Errorf("noise triggered detection at %d", got)
	}
}

func TestDetectSignalDegenerateParams(t *testing.T) {
	s := []uint8{3, 3, 3}
	for _, tc := range []struct {
		name    string
		k, m    int
		samples []uint8
	}{
		{"zero m", 1, 0, s},
		{"zero k", 0, 2, s},
		{"k > m", 3, 2, s},
		{"short buffer", 2, 8, s},
	} {
		if got := DetectSignal(tc.samples, tc.k, tc.m, 1); got != -1 {
			t.Errorf("%s: got %d, want -1", tc.name, got)
		}
	}
}

// TestEndToEndAccumulateDetect exercises the full Figure 3 flow with the
// paper's calibrated parameters: 10 chirps, T=2, 6-of-32 detection.
func TestEndToEndAccumulateDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const (
		bufLen      = 1000
		arrival     = 333 // true signal start offset
		chirpLen    = 128
		pDetect     = 0.5  // per-sample detection probability during signal
		pFalse      = 0.01 // per-sample false positive probability
		chirps      = 10
		timingSlack = 8 // allowed detection offset error, samples
	)
	acc, _ := NewAccumulator(bufLen)
	for c := 0; c < chirps; c++ {
		rec := make([]bool, bufLen)
		for i := range rec {
			inSignal := i >= arrival && i < arrival+chirpLen
			p := pFalse
			if inSignal {
				p = pDetect
			}
			rec[i] = rng.Float64() < p
		}
		if err := acc.AddRecording(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := DetectSignal(acc.Samples(), 6, 32, 2)
	if got < arrival-timingSlack || got > arrival+timingSlack {
		t.Errorf("detected at %d, want %d±%d", got, arrival, timingSlack)
	}
}

func TestPatternValidate(t *testing.T) {
	if err := DefaultPattern().Validate(); err != nil {
		t.Errorf("default pattern invalid: %v", err)
	}
	bad := []Pattern{
		{Chirps: 0, ChirpLen: 1},
		{Chirps: 1, ChirpLen: 0},
		{Chirps: 1, ChirpLen: 1, GapLen: -1},
		{Chirps: 1, ChirpLen: 1, SilenceFrac: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("pattern %d should be invalid", i)
		}
	}
}

func TestPatternVerifyAt(t *testing.T) {
	p := Pattern{Chirps: 1, ChirpLen: 8, RequireSilent: 4, SilenceFrac: 0.25}
	samples := make([]uint8, 20)
	for i := 10; i < 18; i++ {
		samples[i] = 5
	}
	if !p.VerifyAt(samples, 10, 2) {
		t.Error("clean preceding silence rejected")
	}
	// Hot samples immediately before the detection: echo tail → reject.
	samples[8] = 5
	samples[9] = 5
	if p.VerifyAt(samples, 10, 2) {
		t.Error("echo tail accepted")
	}
	// Out-of-range index.
	if p.VerifyAt(samples, -1, 2) || p.VerifyAt(samples, 20, 2) {
		t.Error("out-of-range index accepted")
	}
	// Index 0: no preceding window, accept.
	if !p.VerifyAt(samples, 0, 2) {
		t.Error("index 0 rejected")
	}
}
