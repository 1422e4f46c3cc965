// Package acoustics models the physical acoustic channel between a mote's
// loudspeaker and another mote's microphone + tone detector: spherical
// spreading plus environment-dependent excess attenuation, ambient noise,
// echoes, unit-to-unit hardware variation, and the Bernoulli tone-detector
// response of paper Section 3.5:
//
//	P[b(t)=1 | signal present] >> P[b(t)=1 | no signal present]
//
// This package is the substitution substrate for the paper's field hardware
// (MICA2 + MTS310 + 105 dB piezo buzzer): its parameters are calibrated so
// that the detection-range and error statistics of the simulated ranging
// service match the campaign numbers the paper reports (≈20 m max on grass,
// 35–50 m on pavement, echoes common in urban settings).
package acoustics

import (
	"errors"
	"fmt"
	"math"
)

// SpeedOfSound is the paper's working value, m/s.
const SpeedOfSound = 340.0

// Environment describes one deployment setting's acoustic propagation.
type Environment struct {
	Name string

	// SourceLevel is the speaker output in dB SPL at RefDistance. The
	// paper's loudspeaker extension provides 105 dB at 10 cm (the original
	// MTS310 buzzer: 88 dB).
	SourceLevel float64
	// RefDistance is the reference distance for SourceLevel, meters.
	RefDistance float64
	// NoiseFloor is the ambient noise level in dB SPL within the detector's
	// band.
	NoiseFloor float64
	// ExcessAttenuation is attenuation beyond spherical spreading, dB per
	// meter — the dominant difference between grass and pavement.
	ExcessAttenuation float64

	// DetectMidSNR is the SNR (dB) at which the tone detector fires on 50%
	// of samples while the tone is present.
	DetectMidSNR float64
	// DetectSlope is the logistic slope (dB) of the detector response.
	DetectSlope float64
	// PFalse is the per-sample probability of a false positive with no
	// signal present (background noise triggering the detector).
	PFalse float64

	// EchoProb is the probability that a given receiver hears a resolvable
	// echo of a chirp (multi-path, §3.4 source 6).
	EchoProb float64
	// EchoExtraPathMean is the mean extra path length of an echo, meters
	// (exponentially distributed).
	EchoExtraPathMean float64
	// EchoLevelLossDB is the additional attenuation an echo suffers
	// relative to the direct path, dB.
	EchoLevelLossDB float64
	// DirectBlockedProb is the probability the direct path is fully
	// obstructed so the receiver hears only echoes (§3.4: "some sensors can
	// only hear echoes of the original signal").
	DirectBlockedProb float64
}

// Validate checks environment parameters.
func (e Environment) Validate() error {
	switch {
	case e.RefDistance <= 0:
		return errors.New("acoustics: RefDistance must be positive")
	case e.DetectSlope <= 0:
		return errors.New("acoustics: DetectSlope must be positive")
	case e.PFalse < 0 || e.PFalse > 1:
		return errors.New("acoustics: PFalse out of [0,1]")
	case e.EchoProb < 0 || e.EchoProb > 1:
		return errors.New("acoustics: EchoProb out of [0,1]")
	case e.DirectBlockedProb < 0 || e.DirectBlockedProb > 1:
		return errors.New("acoustics: DirectBlockedProb out of [0,1]")
	case e.ExcessAttenuation < 0:
		return errors.New("acoustics: negative ExcessAttenuation")
	case e.EchoExtraPathMean < 0:
		return errors.New("acoustics: negative EchoExtraPathMean")
	}
	return nil
}

// ReceivedLevel returns the direct-path signal level (dB SPL) at distance d
// meters: source level minus spherical spreading minus excess attenuation.
func (e Environment) ReceivedLevel(d float64) float64 {
	if d < e.RefDistance {
		d = e.RefDistance
	}
	spreading := 20 * math.Log10(d/e.RefDistance)
	return e.SourceLevel - spreading - e.ExcessAttenuation*(d-e.RefDistance)
}

// SNR returns the signal-to-noise ratio in dB at distance d, adjusted by
// per-unit speaker and microphone offsets (dB).
func (e Environment) SNR(d, speakerAdjDB, micAdjDB float64) float64 {
	return e.ReceivedLevel(d) + speakerAdjDB + micAdjDB - e.NoiseFloor
}

// PDetect maps an SNR (dB) to the per-sample probability that the tone
// detector reports the tone while it is present, via a logistic response
// floored at PFalse (a tone can never make detection less likely than
// noise alone).
func (e Environment) PDetect(snr float64) float64 {
	p := 1 / (1 + math.Exp(-(snr-e.DetectMidSNR)/e.DetectSlope))
	if p < e.PFalse {
		return e.PFalse
	}
	return p
}

// String implements fmt.Stringer.
func (e Environment) String() string {
	return fmt.Sprintf("Environment(%s)", e.Name)
}

// Grass returns the flat grassy-field environment of the paper's main
// campaign (Section 3.6): 10–15 cm grass absorbs strongly; virtually no
// detections beyond 20 m; ~80–85%% chirp detection at 10 m; occasional loud
// aircraft noise raises the false-positive floor slightly.
func Grass() Environment {
	return Environment{
		Name:              "grass",
		SourceLevel:       105,
		RefDistance:       0.1,
		NoiseFloor:        40,
		ExcessAttenuation: 1.0,
		DetectMidSNR:      8,
		DetectSlope:       2,
		PFalse:            0.004,
		EchoProb:          0.02,
		EchoExtraPathMean: 6,
		EchoLevelLossDB:   10,
		DirectBlockedProb: 0.01,
	}
}

// Pavement returns the paved parking-lot environment: low attenuation, most
// chirps detected to 35 m and some to 50 m (Section 3.6.2).
func Pavement() Environment {
	return Environment{
		Name:              "pavement",
		SourceLevel:       105,
		RefDistance:       0.1,
		NoiseFloor:        40,
		ExcessAttenuation: 0.18,
		DetectMidSNR:      8,
		DetectSlope:       2,
		PFalse:            0.003,
		EchoProb:          0.10,
		EchoExtraPathMean: 8,
		EchoLevelLossDB:   12,
		DirectBlockedProb: 0.005,
	}
}

// Urban returns the urban environment of the baseline evaluation (Section
// 3.3): buildings, pavement, gravel and short grass; echoes are particularly
// common and background noise triggers more false detections.
func Urban() Environment {
	return Environment{
		Name:              "urban",
		SourceLevel:       105,
		RefDistance:       0.1,
		NoiseFloor:        44,
		ExcessAttenuation: 0.25,
		DetectMidSNR:      8,
		DetectSlope:       2,
		PFalse:            0.010,
		EchoProb:          0.40,
		EchoExtraPathMean: 12,
		EchoLevelLossDB:   6,
		DirectBlockedProb: 0.05,
	}
}

// Wooded returns the wooded area with >20 cm grass and scattered trees
// (Section 3.6): the highest attenuation of the four presets.
func Wooded() Environment {
	return Environment{
		Name:              "wooded",
		SourceLevel:       105,
		RefDistance:       0.1,
		NoiseFloor:        40,
		ExcessAttenuation: 1.6,
		DetectMidSNR:      8,
		DetectSlope:       2,
		PFalse:            0.004,
		EchoProb:          0.08,
		EchoExtraPathMean: 5,
		EchoLevelLossDB:   8,
		DirectBlockedProb: 0.05,
	}
}
