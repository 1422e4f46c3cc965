// Package signal implements the acoustic signal-detection algorithms of the
// paper's Section 3: the multi-chirp binary accumulation buffer and
// sliding-window threshold detector of Figure 3 (used with a hardware tone
// detector), the chirp-pattern encoder/verifier of Section 3.5, and the
// sliding-DFT software tone detector of Figure 9 (for platforms without a
// hardware tone detector, e.g. the XSM mote).
package signal

import (
	"errors"
	"fmt"
)

// AccumulatorBits is the number of bits the ranging service allocates per
// buffer offset; the paper uses 4 bits, allowing up to 15 chirps to be
// accumulated (Section 3.6.2).
const AccumulatorBits = 4

// MaxAccumulated is the saturation value of one buffer cell.
const MaxAccumulated = 1<<AccumulatorBits - 1

// Accumulator sums binary tone-detector outputs across multiple chirps at
// the same buffer offsets, implementing the paper's record-signal routine
// (Figure 3). Detections of a true signal land at correlated offsets and
// accumulate; uncorrelated noise does not.
type Accumulator struct {
	samples []uint8
	chirps  int
}

// NewAccumulator creates an accumulator with n sample offsets. The buffer
// length bounds the maximum measurable distance: n = fs · dmax / Vs.
func NewAccumulator(n int) (*Accumulator, error) {
	if n <= 0 {
		return nil, errors.New("signal: NewAccumulator: non-positive buffer size")
	}
	return &Accumulator{samples: make([]uint8, n)}, nil
}

// AddRecording accumulates one chirp's binary tone-detector time series.
// detections must have the same length as the buffer. Cells saturate at
// MaxAccumulated, modeling the 4-bit hardware buffer. It returns an error
// after MaxAccumulated recordings, matching the mote's capacity.
func (a *Accumulator) AddRecording(detections []bool) error {
	if len(detections) != len(a.samples) {
		return fmt.Errorf("signal: AddRecording: length %d != buffer %d", len(detections), len(a.samples))
	}
	if a.chirps >= MaxAccumulated {
		return fmt.Errorf("signal: AddRecording: accumulator full (%d chirps)", a.chirps)
	}
	a.chirps++
	for i, d := range detections {
		if d && a.samples[i] < MaxAccumulated {
			a.samples[i]++
		}
	}
	return nil
}

// Samples exposes the accumulated buffer (shared, not copied) for the
// detector. Treat as read-only.
func (a *Accumulator) Samples() []uint8 { return a.samples }

// Reset clears the buffer for a new measurement round.
func (a *Accumulator) Reset() {
	a.chirps = 0
	for i := range a.samples {
		a.samples[i] = 0
	}
}

// DetectSignal is the paper's detect-signal routine (Figure 3): it slides a
// window of m consecutive samples over the accumulated buffer and returns
// the index of the first window whose first sample meets the threshold and
// which contains at least k samples ≥ T. It returns -1 when no signal is
// found.
//
// The returned index is the offset of the beginning of the acoustic signal
// in the sample buffer; the caller converts it to a distance via the
// sampling rate and the speed of sound.
func DetectSignal(samples []uint8, k, m int, t uint8) int {
	if m <= 0 || k <= 0 || k > m || len(samples) < m {
		return -1
	}
	count := 0
	for i := 0; i < m; i++ {
		if samples[i] >= t {
			count++
		}
	}
	// First window [0, m).
	if count >= k && samples[0] >= t {
		return 0
	}
	for i := m; i < len(samples); i++ {
		if samples[i-m] >= t {
			count--
		}
		if samples[i] >= t {
			count++
		}
		// Window is [i-m+1, i]; report its start when it both passes the
		// k-of-m test and begins with a detection, per Figure 3.
		if count >= k && samples[i-m+1] >= t {
			return i - m + 1
		}
	}
	return -1
}
