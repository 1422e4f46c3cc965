package signal

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// bandpassEnergyDetector is the XSM-style alternative the paper evaluates in
// Section 3.7's first paragraph: a tunable hardware band-pass filter around
// the beacon frequency followed by simple energy detection. The paper found
// it achieves "similar accuracy as the MICA hardware tone detector, but a
// shorter maximum range (10 m)" because plain energy detection needs a
// higher SNR than coherent tone detection.
//
// No figure or scenario runs it: it lives beside the tests as the
// comparison baseline for the DFT detector's Section 3.7 claim
// (TestEnergyDetectorWorseThanDFTInNoise).
type bandpassEnergyDetector struct {
	// SampleRate is the sampling rate, Hz.
	SampleRate float64
	// CenterFreq is the band-pass center frequency, Hz.
	CenterFreq float64
	// Q is the filter's quality factor (center frequency / bandwidth).
	Q float64
	// Margin is the multiple of the tracked noise-floor energy required
	// for detection.
	Margin float64
	// MinRun is the number of consecutive over-margin samples required.
	MinRun int
	// Refractory is the post-detection dead time in samples.
	Refractory int
	// NoiseWindow is the span of the sliding-minimum noise tracker.
	NoiseWindow int
	// EnergyWindow is the short-term energy averaging span, samples. After
	// a narrow band-pass the noise is correlated over ~Q·fs/f samples, so
	// this must be long enough to pool several coherence times or the
	// energy estimate fluctuates wildly.
	EnergyWindow int
}

// defaultBandpassEnergyDetector returns a detector tuned to the fs/6 beacon
// used throughout this repository.
func defaultBandpassEnergyDetector() bandpassEnergyDetector {
	// The energy window plus the filter's ring-down must fit inside the
	// inter-chirp gap (64 samples at the default pattern) so the noise
	// floor can be tracked between chirps: that caps Q at ~4, which admits
	// more noise — the physical reason the paper found plain energy
	// detection usable only at shorter range than coherent tone detection.
	return bandpassEnergyDetector{
		SampleRate:   16000,
		CenterFreq:   16000.0 / 6,
		Q:            4,
		Margin:       25,
		MinRun:       24,
		Refractory:   128 + SlidingDFTWindow,
		NoiseWindow:  384,
		EnergyWindow: 48,
	}
}

// Validate checks the detector parameters.
func (d bandpassEnergyDetector) Validate() error {
	switch {
	case d.SampleRate <= 0:
		return errors.New("signal: energy detector: non-positive sample rate")
	case d.CenterFreq <= 0 || d.CenterFreq >= d.SampleRate/2:
		return errors.New("signal: energy detector: center frequency outside (0, Nyquist)")
	case d.Q <= 0:
		return errors.New("signal: energy detector: non-positive Q")
	case d.Margin < 1:
		return errors.New("signal: energy detector: margin below 1")
	}
	return nil
}

// biquadBandpass computes the constant-peak-gain band-pass biquad
// coefficients (RBJ cookbook).
func (d bandpassEnergyDetector) biquadBandpass() (b0, b1, b2, a1, a2 float64) {
	w0 := 2 * math.Pi * d.CenterFreq / d.SampleRate
	alpha := math.Sin(w0) / (2 * d.Q)
	a0 := 1 + alpha
	b0 = alpha / a0
	b1 = 0
	b2 = -alpha / a0
	a1 = -2 * math.Cos(w0) / a0
	a2 = (1 - alpha) / a0
	return
}

// Filter runs the band-pass over the waveform and returns the filtered
// series.
func (d bandpassEnergyDetector) Filter(samples []float64) []float64 {
	b0, b1, b2, a1, a2 := d.biquadBandpass()
	out := make([]float64, len(samples))
	var x1, x2, y1, y2 float64
	for i, x := range samples {
		y := b0*x + b1*x1 + b2*x2 - a1*y1 - a2*y2
		out[i] = y
		x2, x1 = x1, x
		y2, y1 = y1, y
	}
	return out
}

// Detect returns the sample indices at which chirps are detected: the
// band-passed signal's short-term energy must exceed Margin times the
// sliding-minimum noise energy for MinRun consecutive samples.
func (d bandpassEnergyDetector) Detect(samples []float64) ([]int, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(samples) < SlidingDFTWindow {
		return nil, nil
	}
	filtered := d.Filter(samples)
	ew := d.EnergyWindow
	if ew <= 0 {
		ew = 96
	}
	energy := make([]float64, len(filtered))
	slidingMeanSquareInto(energy, filtered, ew)
	nw := d.NoiseWindow
	if nw <= 0 {
		nw = 384
	}
	// Warm-up energies (windows not yet full) are unreliable and can sit
	// near zero, which would poison the minimum tracker and make the
	// threshold vanish; exclude them from floor computation.
	forFloor := append([]float64(nil), energy...)
	for i := 0; i < ew && i < len(forFloor); i++ {
		forFloor[i] = math.Inf(1)
	}
	floor := make([]float64, len(forFloor))
	slidingMinInto(floor, make([]int, nw+1), forFloor, nw)

	minRun := d.MinRun
	if minRun <= 0 {
		minRun = 1
	}
	var hits []int
	run, cooldown := 0, 0
	for i := range energy {
		if i < ew {
			continue // warm-up: energy and floor estimates not yet formed
		}
		if cooldown > 0 {
			cooldown--
			run = 0
			continue
		}
		if energy[i] > d.Margin*floor[i] && energy[i] > 1e-12 {
			run++
			if run == minRun {
				hits = append(hits, i-minRun+1)
				cooldown = d.Refractory
			}
		} else {
			run = 0
		}
	}
	return hits, nil
}

func TestEnergyDetectorValidate(t *testing.T) {
	if err := defaultBandpassEnergyDetector().Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	bad := []bandpassEnergyDetector{
		{},
		{SampleRate: 16000, CenterFreq: 9000, Q: 8, Margin: 10}, // above Nyquist
		{SampleRate: 16000, CenterFreq: 2000, Q: 0, Margin: 10},
		{SampleRate: 16000, CenterFreq: 2000, Q: 8, Margin: 0.5},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("detector %d should be invalid", i)
		}
	}
}

func TestBiquadSelectivity(t *testing.T) {
	d := defaultBandpassEnergyDetector()
	gain := func(freq float64) float64 {
		n := 2000
		in := make([]float64, n)
		for i := range in {
			in[i] = math.Sin(2 * math.Pi * freq / d.SampleRate * float64(i))
		}
		out := d.Filter(in)
		var e float64
		for _, y := range out[n/2:] { // steady state
			e += y * y
		}
		return e
	}
	center := gain(d.CenterFreq)
	off := gain(d.CenterFreq * 2.5)
	if center < 10*off {
		t.Errorf("band-pass not selective: center %g vs off-band %g", center, off)
	}
}

func TestEnergyDetectorCleanSignal(t *testing.T) {
	cfg := DefaultSynth()
	wave, err := cfg.Generate(nil)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := defaultBandpassEnergyDetector().Detect(wave)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != cfg.Chirps {
		t.Fatalf("clean signal: %d detections, want %d (hits=%v)", len(hits), cfg.Chirps, hits)
	}
}

func TestEnergyDetectorPureNoiseNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wave := make([]float64, 16000)
	for i := range wave {
		wave[i] = rng.NormFloat64() * 500
	}
	hits, err := defaultBandpassEnergyDetector().Detect(wave)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Errorf("pure noise produced %d detections: %v", len(hits), hits)
	}
}

// TestEnergyDetectorWorseThanDFTInNoise reproduces the paper's §3.7
// comparison: band-pass + energy detection achieves similar accuracy but a
// *shorter maximum range* than coherent tone detection — i.e. at low SNR the
// DFT detector still finds chirps the energy detector misses.
func TestEnergyDetectorWorseThanDFTInNoise(t *testing.T) {
	countHits := func(noise float64, seed int64) (dft, energy int) {
		cfg := DefaultSynth()
		cfg.NoiseStd = noise
		rng := rand.New(rand.NewSource(seed))
		wave, err := cfg.Generate(rng)
		if err != nil {
			t.Fatal(err)
		}
		starts := cfg.ChirpStarts()
		match := func(hits []int) int {
			n := 0
			for _, h := range hits {
				for _, s := range starts {
					if h >= s-SlidingDFTWindow && h <= s+cfg.ChirpLen {
						n++
						break
					}
				}
			}
			return n
		}
		eh, err := defaultBandpassEnergyDetector().Detect(wave)
		if err != nil {
			t.Fatal(err)
		}
		return match(DefaultDFTDetector().DetectIn(nil, wave)), match(eh)
	}

	// Moderate noise: both should find most chirps.
	dftMod, energyMod := countHits(300, 11)
	if dftMod < 3 || energyMod < 3 {
		t.Errorf("moderate noise: dft=%d energy=%d, want ≥3 each", dftMod, energyMod)
	}

	// Heavy noise across several trials: the DFT detector must find at
	// least as many chirps in total, and strictly more overall.
	var dftTotal, energyTotal int
	for seed := int64(0); seed < 8; seed++ {
		d, e := countHits(900, 100+seed)
		dftTotal += d
		energyTotal += e
	}
	if dftTotal < energyTotal {
		t.Errorf("heavy noise: dft=%d < energy=%d — coherent detection should win", dftTotal, energyTotal)
	}
}

func TestEnergyDetectorShortInput(t *testing.T) {
	hits, err := defaultBandpassEnergyDetector().Detect(make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	if hits != nil {
		t.Errorf("short input produced hits: %v", hits)
	}
}

func TestEnergyDetectorInvalidConfig(t *testing.T) {
	d := defaultBandpassEnergyDetector()
	d.Q = -1
	if _, err := d.Detect(make([]float64, 100)); err == nil {
		t.Error("want error for invalid config")
	}
}
