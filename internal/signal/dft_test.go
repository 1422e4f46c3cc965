package signal

import (
	"math"
	"math/rand"
	"testing"
)

// steadyStatePower runs the filter over a pure tone long enough to fill the
// window and returns the final band powers.
func steadyStatePower(freqFrac float64, amplitude float64) (p4, p6 float64) {
	var f SlidingDFT
	for i := 0; i < 4*SlidingDFTWindow; i++ {
		p4, p6 = f.Filter(amplitude * math.Sin(2*math.Pi*freqFrac*float64(i)))
	}
	return p4, p6
}

func TestSlidingDFTSelectivity(t *testing.T) {
	// A tone at fs/4 must light up the p4 band far more than p6 and vice
	// versa.
	p4at4, p6at4 := steadyStatePower(0.25, 100)
	if p4at4 < 100*p6at4 {
		t.Errorf("fs/4 tone: p4=%g not dominant over p6=%g", p4at4, p6at4)
	}
	p4at6, p6at6 := steadyStatePower(1.0/6, 100)
	if p6at6 < 100*p4at6 {
		t.Errorf("fs/6 tone: p6=%g not dominant over p4=%g", p6at6, p4at6)
	}
}

func TestSlidingDFTToneMagnitude(t *testing.T) {
	// For amplitude A at the exact bin frequency the unnormalized DFT bin
	// magnitude is A·W/2, so power ≈ (A·W/2)².
	const amp = 10.0
	p4, _ := steadyStatePower(0.25, amp)
	want := amp * amp * SlidingDFTWindow * SlidingDFTWindow / 4
	if math.Abs(p4-want)/want > 0.05 {
		t.Errorf("p4 = %g, want ≈%g", p4, want)
	}
	// The paper's p6 formula (re6²+3·im6²)/2 carries a factor of 2 relative
	// to |S|²: its integer coefficients are 2·cos and (2/√3)·sin, so
	// re6²+3·im6² = 4|S|².
	_, p6 := steadyStatePower(1.0/6, amp)
	if math.Abs(p6-2*want)/(2*want) > 0.05 {
		t.Errorf("p6 = %g, want ≈%g", p6, 2*want)
	}
}

func TestSlidingDFTSilenceIsZero(t *testing.T) {
	var f SlidingDFT
	var p4, p6 float64
	for i := 0; i < 100; i++ {
		p4, p6 = f.Filter(0)
	}
	if p4 != 0 || p6 != 0 {
		t.Errorf("silence: p4=%g p6=%g, want 0", p4, p6)
	}
}

func TestSlidingDFTMatchesGoertzel(t *testing.T) {
	// After the window fills, the sliding filter's fs/4 power must match a
	// direct Goertzel computation over the same 36 samples.
	rng := rand.New(rand.NewSource(11))
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = rng.NormFloat64()*3 + 5*math.Sin(2*math.Pi*0.25*float64(i))
	}
	var f SlidingDFT
	var p4 float64
	for _, s := range samples {
		p4, _ = f.Filter(s)
	}
	window := samples[len(samples)-SlidingDFTWindow:]
	want := goertzelPower(window, 0.25)
	if math.Abs(p4-want) > 1e-6*(1+want) {
		t.Errorf("sliding p4 = %g, Goertzel = %g", p4, want)
	}
}

func TestSlidingDFTDecaysAfterTone(t *testing.T) {
	var f SlidingDFT
	var p6 float64
	for i := 0; i < 72; i++ {
		p6, _ = f.Filter(100 * math.Sin(2*math.Pi/6*float64(i)))
	}
	// Feed silence for a full window: power must return to ~0.
	for i := 0; i < SlidingDFTWindow; i++ {
		_, p6 = f.Filter(0)
	}
	if p6 > 1e-9 {
		t.Errorf("band power %g did not decay after tone", p6)
	}
}

func TestSlidingDFTReset(t *testing.T) {
	var f SlidingDFT
	for i := 0; i < 50; i++ {
		f.Filter(7)
	}
	f.Reset()
	p4, p6 := f.Filter(0)
	if p4 != 0 || p6 != 0 {
		t.Errorf("after Reset: p4=%g p6=%g, want 0", p4, p6)
	}
}

func TestDFTDetectorCleanSignal(t *testing.T) {
	cfg := DefaultSynth()
	wave, err := cfg.Generate(nil)
	if err != nil {
		t.Fatal(err)
	}
	hits := DefaultDFTDetector().DetectIn(nil, wave)
	if len(hits) != cfg.Chirps {
		t.Fatalf("clean signal: %d detections, want %d (hits=%v)", len(hits), cfg.Chirps, hits)
	}
	for i, start := range cfg.ChirpStarts() {
		if math.Abs(float64(hits[i]-start)) > SlidingDFTWindow+16 {
			t.Errorf("hit %d at %d, chirp starts at %d", i, hits[i], start)
		}
	}
}

func TestDFTDetectorNoisySignal(t *testing.T) {
	// Figure 10's noisy case: the paper reports 3 of 4 chirps detected with
	// no false positives. We require ≥3 of 4 with zero false positives.
	cfg := DefaultSynth()
	cfg.NoiseStd = 700 // SNR ≈ 1 per-sample: heavily degraded
	rng := rand.New(rand.NewSource(13))
	wave, err := cfg.Generate(rng)
	if err != nil {
		t.Fatal(err)
	}
	hits := DefaultDFTDetector().DetectIn(nil, wave)
	starts := cfg.ChirpStarts()
	matched := 0
	false_ := 0
	for _, h := range hits {
		ok := false
		for _, s := range starts {
			if h >= s-SlidingDFTWindow && h <= s+cfg.ChirpLen {
				ok = true
				break
			}
		}
		if ok {
			matched++
		} else {
			false_++
		}
	}
	if matched < 3 {
		t.Errorf("only %d/4 chirps detected in noise (hits=%v)", matched, hits)
	}
	if false_ > 0 {
		t.Errorf("%d false positives in noise (hits=%v)", false_, hits)
	}
}

func TestDFTDetectorPureNoiseNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	wave := make([]float64, 16000) // one second of pure noise
	for i := range wave {
		wave[i] = rng.NormFloat64() * 500
	}
	hits := DefaultDFTDetector().DetectIn(nil, wave)
	if len(hits) != 0 {
		t.Errorf("pure noise produced %d detections: %v", len(hits), hits)
	}
}

func TestDFTDetectorShortInput(t *testing.T) {
	if hits := DefaultDFTDetector().DetectIn(nil, make([]float64, 10)); hits != nil {
		t.Errorf("short input produced hits: %v", hits)
	}
}

func TestGoertzelPowerKnown(t *testing.T) {
	// 36 samples of sin at fs/4: power = (A·W/2)².
	samples := make([]float64, 36)
	for i := range samples {
		samples[i] = 2 * math.Sin(2*math.Pi*0.25*float64(i))
	}
	got := goertzelPower(samples, 0.25)
	want := 4.0 * 36 * 36 / 4
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("Goertzel = %g, want ≈%g", got, want)
	}
	// Off-bin frequency: near zero response.
	off := goertzelPower(samples, 1.0/6)
	if off > want/100 {
		t.Errorf("off-bin power %g too high vs %g", off, want)
	}
}

func TestSynthValidate(t *testing.T) {
	good := DefaultSynth()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []SynthConfig{
		{},
		{SampleRate: 16000, ToneFreq: 9000, ChirpLen: 1, Chirps: 1}, // above Nyquist
		{SampleRate: 16000, ToneFreq: 4000, ChirpLen: 0, Chirps: 1},
		{SampleRate: 16000, ToneFreq: 4000, ChirpLen: 1, Chirps: 1, Gap: -1},
		{SampleRate: 16000, ToneFreq: 4000, ChirpLen: 1, Chirps: 1, NoiseStd: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestSynthGenerate(t *testing.T) {
	cfg := DefaultSynth()
	wave, err := cfg.Generate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wave) != cfg.TotalLen() {
		t.Fatalf("length %d, want %d", len(wave), cfg.TotalLen())
	}
	// Leading silence must be exactly zero without noise.
	for i := 0; i < cfg.Lead; i++ {
		if wave[i] != 0 {
			t.Fatalf("lead sample %d = %g, want 0", i, wave[i])
		}
	}
	// Chirp regions must carry energy.
	start := cfg.ChirpStarts()[0]
	var energy float64
	for i := start; i < start+cfg.ChirpLen; i++ {
		energy += wave[i] * wave[i]
	}
	if energy == 0 {
		t.Error("chirp region has no energy")
	}
	// Noise without rng must error.
	cfg.NoiseStd = 1
	if _, err := cfg.Generate(nil); err == nil {
		t.Error("want error for nil rng with noise")
	}
}

// goertzelPower computes the DFT bin power of samples at normalized
// frequency freq (cycles per sample) with the Goertzel recurrence. It is the
// reference implementation the sliding filter is validated against.
func goertzelPower(samples []float64, freq float64) float64 {
	omega := 2 * math.Pi * freq
	coeff := 2 * math.Cos(omega)
	var s0, s1, s2 float64
	for _, x := range samples {
		s0 = x + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	return s1*s1 + s2*s2 - coeff*s1*s2
}
