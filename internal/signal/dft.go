package signal

import "resilientloc/internal/scratch"

// SlidingDFTWindow is the window length of the paper's XSM detection filter
// (Figure 9): 36 samples, the least common multiple of the two beacon
// periods (4 and 6 samples), so both bins complete whole cycles per window.
const SlidingDFTWindow = 36

// SlidingDFT is the paper's Figure 9 software tone-detection filter: an
// incrementally-updated DFT over a sliding 36-sample window that tracks the
// power of two candidate beacon bands at 1/4 and 1/6 of the sampling rate.
// Those frequencies are chosen so the complex roots of unity are 0, ±1, ±1/2
// (scaled), avoiding multiplications on a microcontroller.
//
// The zero value is ready to use.
type SlidingDFT struct {
	samples [SlidingDFTWindow]float64
	n       int // index into the circular buffer, mod 36 (phase mod 4 follows n)
	k       int // phase counter mod 6
	re4     float64
	im4     float64
	re6     float64
	im6     float64
}

// Reset restores the filter to its initial state.
func (f *SlidingDFT) Reset() { *f = SlidingDFT{} }

// Filter pushes one raw sample and returns the updated band power estimates
// (p4, p6) for the fs/4 and fs/6 beacon bands, exactly per Figure 9:
// p4 = re4² + im4², p6 = (re6² + 3·im6²)/2.
func (f *SlidingDFT) Filter(sample float64) (p4, p6 float64) {
	// Replace the oldest sample; the delta updates the running DFT bins.
	delta := sample - f.samples[f.n]
	f.samples[f.n] = sample

	// fs/4 bin: roots of unity cycle (1, i, -1, -i) with period 4. Because
	// 36 ≡ 0 (mod 4), the phase of a buffer slot is stable across wraps.
	switch f.n % 4 {
	case 0:
		f.re4 += delta
	case 1:
		f.im4 += delta
	case 2:
		f.re4 -= delta
	case 3:
		f.im4 -= delta
	}

	// fs/6 bin: coefficients are 2·cos and (2/√3)·sin of 2πk/6, kept integer
	// by scaling; the (re6² + 3·im6²)/2 output compensates.
	switch f.k {
	case 0:
		f.re6 += 2 * delta
	case 1:
		f.re6 += delta
		f.im6 += delta
	case 2:
		f.re6 -= delta
		f.im6 += delta
	case 3:
		f.re6 -= 2 * delta
	case 4:
		f.re6 -= delta
		f.im6 -= delta
	case 5:
		f.re6 += delta
		f.im6 -= delta
	}

	f.n = (f.n + 1) % SlidingDFTWindow
	f.k = (f.k + 1) % 6

	return f.re4*f.re4 + f.im4*f.im4, (f.re6*f.re6 + 3*f.im6*f.im6) / 2
}

// filterBand4Series fills out with the fs/4 band-power series, bit-identical
// to the first power a fresh SlidingDFT's Filter returns per sample: the two bins share only the sample delta, so
// skipping the fs/6 accumulator updates performs exactly the same operations
// on the fs/4 state.
func filterBand4Series(out, samples []float64) {
	var buf [SlidingDFTWindow]float64
	var re4, im4 float64
	n, m := 0, 0 // buffer index mod 36, phase mod 4
	for i, s := range samples {
		delta := s - buf[n]
		buf[n] = s
		switch m {
		case 0:
			re4 += delta
		case 1:
			im4 += delta
		case 2:
			re4 -= delta
		case 3:
			im4 -= delta
		}
		if n++; n == SlidingDFTWindow {
			n = 0
		}
		if m++; m == 4 {
			m = 0
		}
		out[i] = re4*re4 + im4*im4
	}
}

// filterBand6Series fills out with the fs/6 band-power series, bit-identical
// to the second power a fresh SlidingDFT's Filter returns per sample (see
// filterBand4Series).
func filterBand6Series(out, samples []float64) {
	var buf [SlidingDFTWindow]float64
	var re6, im6 float64
	n, k := 0, 0 // buffer index mod 36, phase mod 6
	for i, s := range samples {
		delta := s - buf[n]
		buf[n] = s
		switch k {
		case 0:
			re6 += 2 * delta
		case 1:
			re6 += delta
			im6 += delta
		case 2:
			re6 -= delta
			im6 += delta
		case 3:
			re6 -= 2 * delta
		case 4:
			re6 -= delta
			im6 -= delta
		case 5:
			re6 += delta
			im6 -= delta
		}
		if n++; n == SlidingDFTWindow {
			n = 0
		}
		if k++; k == 6 {
			k = 0
		}
		out[i] = (re6*re6 + 3*im6*im6) / 2
	}
}

// DFTDetector detects chirps in a raw sampled waveform using the sliding
// DFT filter plus the paper's noise-isolation rule (Section 3.7): estimate
// the broadband noise power, subtract/compare it against the beacon-band
// output, and declare a detection when the band exceeds the noise floor by a
// margin for a sustained run of samples.
//
// The noise floor is estimated as a sliding *minimum* of the windowed mean
// square over the preceding NoiseWindow samples. The minimum reaches the
// pure-noise level during inter-chirp gaps, so — unlike a plain Parseval
// average — the estimate is not inflated by the beacon tone itself while a
// chirp is sounding.
type DFTDetector struct {
	// Band selects which beacon band to monitor: 4 for fs/4, 6 for fs/6.
	Band int
	// Margin is the multiple of the per-bin noise power the beacon band must
	// exceed for detection. Noise bin power is exponentially distributed and
	// strongly correlated across the window overlap, so the margin — not
	// MinRun — controls the false-positive rate; 12–16 keeps false positives
	// negligible over seconds of audio while still detecting tones near
	// unity per-sample SNR.
	Margin float64
	// MinRun is the number of consecutive over-margin samples required to
	// declare a chirp, suppressing single-sample flickers.
	MinRun int
	// Refractory is the number of samples after a detection during which no
	// new chirp is declared. Set it to at least chirp length + DFT window so
	// one chirp (plus the window tail it leaves in the filter) yields one
	// event.
	Refractory int
	// NoiseWindow is the span, in samples, over which the minimum of the
	// windowed mean square is tracked. It must cover at least one
	// inter-chirp gap so the estimate can dip to the true floor.
	NoiseWindow int
}

// DefaultDFTDetector returns the configuration used for the Figure 10
// reproduction: fs/6 band, 16× noise margin, 18-sample run, refractory
// covering a 128-sample chirp plus the filter window.
func DefaultDFTDetector() DFTDetector {
	return DFTDetector{
		Band:        6,
		Margin:      16,
		MinRun:      18,
		Refractory:  128 + SlidingDFTWindow,
		NoiseWindow: 256,
	}
}

// DetectIn returns the sample indices at which chirps are detected in the
// waveform. Every workspace — the monitored band-power series, the windowed
// mean square, the noise floor, and the min-filter deque — is borrowed from
// ws instead of allocated (nil ws allocates). In the engine's
// steady state the detection path performs zero allocations per trial. The
// returned hit slice is arena-owned: valid only until ws's next Release.
func (d DFTDetector) DetectIn(ws *scratch.Arena, samples []float64) []int {
	if len(samples) < SlidingDFTWindow {
		return nil
	}
	// Only the monitored band's series is needed, and the two bins' states
	// are independent, so a band-specific pass halves the filter work while
	// performing bit-identical operations on the monitored accumulators.
	band := ws.Float64s(len(samples))
	bandScale := 0.5 // Figure 9's (re6²+3·im6²)/2 equals 2·|S|²; undo it
	if d.Band == 4 {
		filterBand4Series(band, samples)
		bandScale = 1
	} else {
		filterBand6Series(band, samples)
	}

	// Per-bin noise power: by Parseval a W-sample window of variance-σ²
	// noise puts W·σ² in each bin on average; σ² comes from the sliding
	// minimum of the windowed mean square.
	meanSq := ws.Float64s(len(samples))
	slidingMeanSquareInto(meanSq, samples, SlidingDFTWindow)
	nw := d.noiseWindow()
	floor := ws.Float64s(len(samples))
	slidingMinInto(floor, ws.Ints(nw+1), meanSq, nw)
	const w = float64(SlidingDFTWindow)

	margin := d.Margin
	if margin < 1 {
		margin = 1
	}
	minRun := d.MinRun
	if minRun <= 0 {
		minRun = 1
	}

	// Each hit consumes at least minRun over-margin samples, which bounds
	// the hit count and keeps the append below allocation-free.
	hits := ws.IntCap(len(samples)/minRun + 1)
	run := 0
	cooldown := 0
	for i := range band {
		if cooldown > 0 {
			cooldown--
			run = 0
			continue
		}
		p := band[i] * bandScale
		if p > margin*w*floor[i] && p > 1e-12 {
			run++
			if run == minRun {
				hits = append(hits, i-minRun+1)
				cooldown = d.Refractory
			}
		} else {
			run = 0
		}
	}
	if len(hits) == 0 {
		return nil
	}
	return hits
}

func (d DFTDetector) noiseWindow() int {
	if d.NoiseWindow <= 0 {
		return 256
	}
	return d.NoiseWindow
}

// slidingMeanSquareInto writes into out, which must have the same length as
// samples, the mean of squared samples over a trailing window of length w
// at each index (shorter at the start).
func slidingMeanSquareInto(out, samples []float64, w int) {
	var sum float64
	for i, s := range samples {
		sum += s * s
		if i >= w {
			sum -= samples[i-w] * samples[i-w]
		}
		n := i + 1
		if n > w {
			n = w
		}
		out[i] = sum / float64(n)
	}
}

// slidingMinInto writes into out (same length as xs), at each index, the
// minimum of xs over the trailing window of length w, using a monotonic
// deque for O(n) total work. The deque is held in ring, a circular index
// buffer of length ≥ w+1.
// The ring replaces the old `deque = deque[1:]` head pop, which leaked
// capacity from the front and forced append regrowth on long waveforms; here
// head and tail just wrap.
func slidingMinInto(out []float64, ring []int, xs []float64, w int) {
	n := len(ring)
	head, count := 0, 0 // deque occupies ring[head … head+count) circularly
	for i, x := range xs {
		for count > 0 {
			back := head + count - 1
			if back >= n {
				back -= n
			}
			if xs[ring[back]] < x {
				break
			}
			count--
		}
		tail := head + count
		if tail >= n {
			tail -= n
		}
		ring[tail] = i
		count++
		if ring[head] <= i-w {
			if head++; head == n {
				head = 0
			}
			count--
		}
		out[i] = xs[ring[head]]
	}
}
