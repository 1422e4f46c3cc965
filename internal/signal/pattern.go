package signal

import "errors"

// Pattern describes the acoustic signal pattern of Section 3.5: a sequence
// of identical chirps interspersed with silence, with small random delays
// between elements so that echoes of one chirp do not align with the next.
type Pattern struct {
	Chirps        int     // number of chirps in the pattern (paper: 10)
	ChirpLen      int     // chirp length in samples (paper: 8 ms at 16 kHz = 128)
	GapLen        int     // nominal silence between chirps, samples
	RandomDelay   int     // max extra random delay added to each gap, samples
	RequireSilent int     // samples of required silence before a chirp for pattern verification
	SilenceFrac   float64 // max fraction of positives tolerated in the silence window
}

// Validate checks the pattern parameters.
func (p Pattern) Validate() error {
	switch {
	case p.Chirps <= 0:
		return errors.New("signal: pattern needs at least one chirp")
	case p.ChirpLen <= 0:
		return errors.New("signal: non-positive chirp length")
	case p.GapLen < 0 || p.RandomDelay < 0 || p.RequireSilent < 0:
		return errors.New("signal: negative pattern interval")
	case p.SilenceFrac < 0 || p.SilenceFrac > 1:
		return errors.New("signal: SilenceFrac out of [0,1]")
	}
	return nil
}

// VerifyAt checks whether a detection at index idx in the accumulated
// buffer is consistent with the pattern: the RequireSilent samples before
// the chirp must be (mostly) below threshold, rejecting detections that are
// the tail of an echo or a continuation of wide-band noise (Section 3.5:
// "we look at both the chirp and the interval preceding it").
func (p Pattern) VerifyAt(samples []uint8, idx int, t uint8) bool {
	if idx < 0 || idx >= len(samples) {
		return false
	}
	lo := idx - p.RequireSilent
	if lo < 0 {
		lo = 0
	}
	if idx == lo {
		return true // no preceding window available; accept
	}
	var hot int
	for i := lo; i < idx; i++ {
		if samples[i] >= t {
			hot++
		}
	}
	return float64(hot) <= p.SilenceFrac*float64(idx-lo)
}

// DefaultPattern returns the parameters the paper calibrated for the grassy
// field campaign (Section 3.6): ten 8 ms chirps at a 16 kHz sampling rate.
func DefaultPattern() Pattern {
	return Pattern{
		Chirps:        10,
		ChirpLen:      128, // 8 ms × 16 kHz
		GapLen:        512, // 32 ms of nominal silence
		RandomDelay:   160, // up to 10 ms random extra delay
		RequireSilent: 64,  // 4 ms of required preceding quiet
		SilenceFrac:   0.25,
	}
}
