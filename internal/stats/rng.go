package stats

import (
	"math/rand"
)

// Sampler draws random variates for the measurement-noise models. All
// randomness in the repository flows through explicitly seeded *rand.Rand
// instances so that every experiment is reproducible run-to-run.
type Sampler struct {
	rng *rand.Rand
}

// newSampler returns a Sampler backed by rng. rng must not be nil.
func newSampler(rng *rand.Rand) *Sampler {
	if rng == nil {
		panic("stats: newSampler: nil rng")
	}
	return &Sampler{rng: rng}
}

// Gaussian draws from N(mu, sigma²).
func (s *Sampler) Gaussian(mu, sigma float64) float64 {
	return mu + sigma*s.rng.NormFloat64()
}

// Uniform draws uniformly from [lo, hi).
func (s *Sampler) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Bernoulli returns true with probability p.
func (s *Sampler) Bernoulli(p float64) bool {
	return s.rng.Float64() < p
}

// Exponential draws from an exponential distribution with the given mean.
func (s *Sampler) Exponential(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// Intn draws uniformly from {0, ..., n-1}.
func (s *Sampler) Intn(n int) int { return s.rng.Intn(n) }

// Rand exposes the underlying generator for callers that need raw access
// (e.g. rand.Shuffle).
func (s *Sampler) Rand() *rand.Rand { return s.rng }

// OutlierMixture models the paper's ranging-error distribution: a zero-mean
// Gaussian core (timing, hardware delays, unit variation — §3.4 sources 1–3)
// plus rare large-magnitude outliers from noise, echoes and faulty hardware
// (§3.4 sources 5–7; Figure 6 shows outliers to 11 m).
type OutlierMixture struct {
	CoreSigma    float64 // σ of the Gaussian core, meters (paper: ≈0.1–0.15 m within ±30 cm)
	POutlier     float64 // probability a sample is an outlier
	OutlierLo    float64 // minimum |outlier| magnitude, meters
	OutlierHi    float64 // maximum |outlier| magnitude, meters
	PUnder       float64 // probability an outlier is an underestimate (negative); Figure 2: most large urban errors are underestimates
	OverSkew     float64 // mean of a small positive skew component (late detections, §3.6.1); 0 disables
	POverSkew    float64 // probability the positive skew applies to a core sample
	OverSkewGain float64 // multiplier converting skew mean into an exponential tail draw
}

// Sample draws one ranging-error value (meters) from the mixture.
func (m OutlierMixture) Sample(s *Sampler) float64 {
	if s.Bernoulli(m.POutlier) {
		mag := s.Uniform(m.OutlierLo, m.OutlierHi)
		if s.Bernoulli(m.PUnder) {
			return -mag
		}
		return mag
	}
	e := s.Gaussian(0, m.CoreSigma)
	if m.OverSkew > 0 && s.Bernoulli(m.POverSkew) {
		gain := m.OverSkewGain
		if gain == 0 {
			gain = 1
		}
		e += s.Exponential(m.OverSkew) * gain
	}
	return e
}
