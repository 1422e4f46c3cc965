// Package ranging simulates the paper's Section 3 acoustic ranging service
// end-to-end: a source node emits a radio message followed by a pattern of
// acoustic chirps; a destination node's tone detector produces a binary time
// series which the Figure 3 record/detect algorithm turns into a
// time-difference-of-arrival and hence a distance.
//
// Two service generations are modeled:
//
//   - Baseline (Section 3.3): a single long chirp and naive first-run
//     detection on the raw tone-detector output — the configuration whose
//     urban-deployment errors Figure 2 shows.
//   - Refined (Section 3.5): multi-chirp accumulation, k-of-m windowed
//     threshold detection, chirp-pattern verification, statistical filtering
//     over rounds, and consistency checking — the service of Figures 6–8.
//
// The physical channel (attenuation, noise, echoes, unit variation) comes
// from internal/acoustics; clocks and radio delays from internal/timesync
// and internal/radio.
package ranging

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"resilientloc/internal/acoustics"
	"resilientloc/internal/deploy"
	"resilientloc/internal/measure"
	"resilientloc/internal/radio"
	"resilientloc/internal/signal"
	"resilientloc/internal/stats"
	"resilientloc/internal/timesync"
)

// Config parameterizes the simulated ranging service.
type Config struct {
	Env        acoustics.Environment
	SampleRate float64 // tone-detector sampling rate, Hz (paper: 16 kHz)

	// MaxBufferRange bounds the measurable distance via buffer sizing,
	// meters: the mote allocates SampleRate·MaxBufferRange/SpeedOfSound
	// cells (paper: <500 bytes at 4 bits/offset for 20 m).
	MaxBufferRange float64

	// Pattern is the chirp pattern (refined service only).
	Pattern signal.Pattern

	// DetectT, DetectK, DetectM are the Figure 3 thresholds: an accumulated
	// cell fires at ≥ DetectT, and DetectK of DetectM consecutive cells must
	// fire (paper calibration: T=2, 6 of 32).
	DetectT uint8
	DetectK int
	DetectM int

	// Baseline switches to the Section 3.3 baseline service: one long chirp,
	// first-run-of-3 detection directly on the tone detector output.
	Baseline bool
	// BaselineChirpLen is the baseline chirp length in samples (64 ms at
	// 16 kHz = 1024; the long chirp is itself an error source, §3.6).
	BaselineChirpLen int
	// PreArrivalBurstProb is the per-measurement probability that residual
	// echoes of earlier chirps or correlated noise produce a short burst of
	// detector positives before the true arrival — the dominant cause of
	// the baseline underestimates in Figure 2.
	PreArrivalBurstProb float64

	Sync  timesync.SyncModel
	Radio radio.DelayModel
	Units acoustics.UnitVariationModel

	// CalibrationBias is the residual δconst calibration error, meters
	// (paper §3.6: an uncalibrated service adds a constant 10–20 cm).
	CalibrationBias float64
	// DeviceJitterStd is the per-measurement jitter of speaker power-up and
	// detector pick-up delays, meters (§3.4 source 2).
	DeviceJitterStd float64
	// SpeakerRampSamples is the length of the piezo speaker's power-up ramp
	// in samples; detection probability scales linearly from 0 to full over
	// the ramp. This is the paper's stated cause of late-detection
	// overestimates with long chirps and of failures with chirps shorter
	// than 8 ms ("the speaker did not have enough time to fully power up",
	// §3.6).
	SpeakerRampSamples int
	// AutoCalibrate reproduces the paper's field procedure: before a
	// campaign, the service measures a reference pair at a known distance
	// and folds the median error into δconst ("we performed additional
	// calibration for the offset compensating for the constant delay
	// incurred in sensing and actuation", §3.6). Because the ramp-induced
	// delay grows with distance, one-point calibration leaves the residual
	// right-skew at long range the paper observes.
	AutoCalibrate bool
	// CalibrationDistance is the reference distance for AutoCalibrate,
	// meters (default 8).
	CalibrationDistance float64
}

// DefaultConfig returns the refined-service configuration of the grassy
// field campaign (Section 3.6).
func DefaultConfig(env acoustics.Environment) Config {
	return Config{
		Env:                 env,
		SampleRate:          16000,
		MaxBufferRange:      25,
		Pattern:             signal.DefaultPattern(),
		DetectT:             2,
		DetectK:             6,
		DetectM:             32,
		Sync:                timesync.DefaultSyncModel(),
		Radio:               radio.DefaultDelayModel(),
		Units:               acoustics.DefaultUnitVariation(),
		CalibrationBias:     0,
		DeviceJitterStd:     0.05,
		SpeakerRampSamples:  64, // 4 ms power-up at 16 kHz
		AutoCalibrate:       true,
		CalibrationDistance: 8,
	}
}

// BaselineConfig returns the Section 3.3 baseline service configuration for
// the urban 60-node evaluation (Figure 2): single 64 ms chirp, naive
// detection, echo-rich environment.
func BaselineConfig(env acoustics.Environment) Config {
	cfg := DefaultConfig(env)
	cfg.Baseline = true
	cfg.BaselineChirpLen = 1024 // 64 ms
	cfg.MaxBufferRange = 35
	cfg.PreArrivalBurstProb = 0.18
	cfg.CalibrationBias = 0.05
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Env.Validate(); err != nil {
		return err
	}
	switch {
	case c.SampleRate <= 0:
		return errors.New("ranging: non-positive sample rate")
	case c.MaxBufferRange <= 0:
		return errors.New("ranging: non-positive buffer range")
	case c.DetectT == 0 || c.DetectK <= 0 || c.DetectM <= 0 || c.DetectK > c.DetectM:
		return errors.New("ranging: invalid detection thresholds")
	case c.PreArrivalBurstProb < 0 || c.PreArrivalBurstProb > 1:
		return errors.New("ranging: PreArrivalBurstProb out of [0,1]")
	case c.DeviceJitterStd < 0:
		return errors.New("ranging: negative DeviceJitterStd")
	case c.SpeakerRampSamples < 0:
		return errors.New("ranging: negative SpeakerRampSamples")
	}
	if c.Baseline {
		if c.BaselineChirpLen <= 0 {
			return errors.New("ranging: baseline needs positive chirp length")
		}
	} else if err := c.Pattern.Validate(); err != nil {
		return err
	}
	if err := c.Sync.Validate(); err != nil {
		return err
	}
	if err := c.Radio.Validate(); err != nil {
		return err
	}
	return c.Units.Validate()
}

// BufferLen returns the accumulation buffer length in samples.
func (c Config) BufferLen() int {
	return int(math.Ceil(c.MaxBufferRange/acoustics.SpeedOfSound*c.SampleRate)) + 64
}

// Service simulates the ranging service over a fixed deployment: each node
// gets a clock and per-unit hardware offsets drawn once at construction
// (unit variation is persistent, §3.4 source 3).
type Service struct {
	cfg         Config
	dep         *deploy.Deployment
	rng         *rand.Rand
	units       []acoustics.UnitOffsets
	clocks      []timesync.Clock
	chn         acoustics.Channel
	calibOffset float64 // meters subtracted from every estimate (δconst calibration)

	// Measurement scratch, reused across MeasurePair calls. Both buffers are
	// fully rewritten per measurement (fillRecording overwrites every rec
	// element; acc is Reset to the NewAccumulator state), so reuse changes no
	// observable behaviour.
	acc *signal.Accumulator
	rec []bool
}

// recBuf returns the cached recording buffer resized to n samples.
func (s *Service) recBuf(n int) []bool {
	if cap(s.rec) < n {
		s.rec = make([]bool, n)
	}
	return s.rec[:n]
}

// accBuf returns the cached accumulator reset for n samples, rebuilding it
// only if the buffer length changed.
func (s *Service) accBuf(n int) (*signal.Accumulator, error) {
	if s.acc != nil && len(s.acc.Samples()) == n {
		s.acc.Reset()
		return s.acc, nil
	}
	acc, err := signal.NewAccumulator(n)
	if err != nil {
		return nil, err
	}
	s.acc = acc
	return acc, nil
}

// NewService builds a ranging service simulation for a deployment. The rng
// drives all stochastic behaviour; the same seed reproduces the same
// campaign.
func NewService(cfg Config, dep *deploy.Deployment, rng *rand.Rand) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ranging: invalid config: %w", err)
	}
	if err := dep.Validate(); err != nil {
		return nil, fmt.Errorf("ranging: invalid deployment: %w", err)
	}
	if rng == nil {
		return nil, errors.New("ranging: nil rng")
	}
	s := &Service{
		cfg: cfg,
		dep: dep,
		rng: rng,
		chn: acoustics.Channel{Env: cfg.Env},
	}
	s.units = make([]acoustics.UnitOffsets, dep.N())
	s.clocks = make([]timesync.Clock, dep.N())
	for i := range s.units {
		s.units[i] = cfg.Units.Draw(rng)
		s.clocks[i] = timesync.RandomClock(rng, 1.0)
	}
	if cfg.AutoCalibrate {
		s.calibrate()
	}
	return s, nil
}

// calibrate measures a nominal reference pair at a known distance and folds
// the median error into the per-measurement offset, mirroring the paper's
// field procedure. The reference pair uses nominal (zero-offset) hardware.
func (s *Service) calibrate() {
	d := s.cfg.CalibrationDistance
	if d <= 0 {
		d = 8
	}
	if d > s.cfg.MaxBufferRange {
		d = s.cfg.MaxBufferRange / 2
	}
	nominal := acoustics.UnitOffsets{}
	savedUnits := s.units
	savedClocks := s.clocks
	// Temporarily point the service at a virtual nominal pair sharing node
	// indices 0 and 1.
	s.units = []acoustics.UnitOffsets{nominal, nominal}
	s.clocks = []timesync.Clock{timesync.NewClock(0, 0), timesync.NewClock(0, 0)}
	var errs []float64
	for i := 0; i < 20; i++ {
		var m float64
		var ok bool
		if s.cfg.Baseline {
			m, ok = s.measureBaseline(0, 1, d)
		} else {
			m, ok = s.measureRefined(0, 1, d)
		}
		if ok {
			errs = append(errs, m-d)
		}
	}
	s.units = savedUnits
	s.clocks = savedClocks
	if med, err := stats.Median(errs); err == nil {
		s.calibOffset = med
	}
}

// MeasurePair simulates one complete ranging attempt from src to dst and
// returns the estimated distance in meters. ok is false when no acoustic
// signal was detected.
func (s *Service) MeasurePair(src, dst int) (d float64, ok bool) {
	if src == dst || src < 0 || dst < 0 || src >= s.dep.N() || dst >= s.dep.N() {
		return 0, false
	}
	truth := s.dep.Positions[src].Dist(s.dep.Positions[dst])
	if s.cfg.Baseline {
		return s.measureBaseline(src, dst, truth)
	}
	return s.measureRefined(src, dst, truth)
}

// timingErrorMeters draws the combined non-acoustic timing error for one
// measurement, expressed in meters: residual clock sync, radio delay jitter,
// device response jitter, and the calibration bias.
func (s *Service) timingErrorMeters(src, dst int) float64 {
	syncErr := s.cfg.Sync.SyncError(s.clocks[src], s.clocks[dst], s.rng)
	radioJitter := s.cfg.Radio.Sample(s.rng) - s.cfg.Radio.Base // jitter only: base is calibrated out
	e := (syncErr + radioJitter) * acoustics.SpeedOfSound
	e += s.cfg.CalibrationBias
	if s.cfg.DeviceJitterStd > 0 {
		e += s.rng.NormFloat64() * s.cfg.DeviceJitterStd
	}
	return e
}

// arrivalSample converts a distance (plus timing error) to a buffer offset.
func (s *Service) arrivalSample(truth, timingErr float64) int {
	t := truth/acoustics.SpeedOfSound + timingErr/acoustics.SpeedOfSound
	return int(math.Round(t * s.cfg.SampleRate))
}

// sampleToDistance converts a detected buffer offset back to meters,
// applying the δconst calibration offset.
func (s *Service) sampleToDistance(idx int) float64 {
	return float64(idx)/s.cfg.SampleRate*acoustics.SpeedOfSound - s.calibOffset
}

// fillRecording writes one chirp's binary tone-detector series into rec:
// background false positives everywhere, direct-path detections over
// [arr, arr+chirpLen) scaled by the speaker power-up ramp, echo detections
// over their delayed windows.
func (s *Service) fillRecording(rec []bool, r acoustics.Reception, arr, chirpLen int) {
	for i := range rec {
		rec[i] = s.rng.Float64() < r.PFalse
	}
	ramp := s.cfg.SpeakerRampSamples
	if !r.DirectBlocked {
		for i := arr; i < arr+chirpLen && i < len(rec); i++ {
			if i < 0 {
				continue
			}
			p := r.PDetect
			if ramp > 0 && i-arr < ramp {
				p *= float64(i-arr+1) / float64(ramp)
			}
			if s.rng.Float64() < p {
				rec[i] = true
			}
		}
	}
	for _, e := range r.Echoes {
		off := arr + int(math.Round(e.ExtraPath/acoustics.SpeedOfSound*s.cfg.SampleRate))
		for i := off; i < off+chirpLen && i < len(rec); i++ {
			if i < 0 {
				continue
			}
			p := e.PDetect
			if ramp > 0 && i-off < ramp {
				p *= float64(i-off+1) / float64(ramp)
			}
			if s.rng.Float64() < p {
				rec[i] = true
			}
		}
	}
}

// measureRefined runs the Section 3.5 service: accumulate the pattern's
// chirps, detect with k-of-m thresholding, verify the preceding silence.
func (s *Service) measureRefined(src, dst int, truth float64) (float64, bool) {
	bufLen := s.cfg.BufferLen()
	acc, err := s.accBuf(bufLen)
	if err != nil {
		return 0, false
	}
	timingErr := s.timingErrorMeters(src, dst)
	arr := s.arrivalSample(truth, timingErr)
	chirpLen := s.cfg.Pattern.ChirpLen

	chirps := s.cfg.Pattern.Chirps
	if chirps > signal.MaxAccumulated {
		chirps = signal.MaxAccumulated
	}
	rec := s.recBuf(bufLen)
	for c := 0; c < chirps; c++ {
		// Each chirp is re-synchronized by its own radio message, so the
		// arrival offset is stable across chirps up to sub-sample jitter;
		// echoes re-draw per chirp, and the pattern's random delays decouple
		// them from the accumulation grid (modeled by fresh echo draws).
		reception := s.chn.Plan(truth, s.units[src], s.units[dst], s.rng)
		s.fillRecording(rec, reception, arr, chirpLen)
		if err := acc.AddRecording(rec); err != nil {
			break
		}
	}

	idx := signal.DetectSignal(acc.Samples(), s.cfg.DetectK, s.cfg.DetectM, s.cfg.DetectT)
	if idx < 0 {
		return 0, false
	}
	if !s.cfg.Pattern.VerifyAt(acc.Samples(), idx, s.cfg.DetectT) {
		return 0, false
	}
	d := s.sampleToDistance(idx)
	if d <= 0.01 {
		return 0, false
	}
	return d, true
}

// measureBaseline runs the Section 3.3 baseline service: a single long
// chirp and detection at the first run of three consecutive positives of
// the raw tone-detector output.
func (s *Service) measureBaseline(src, dst int, truth float64) (float64, bool) {
	bufLen := s.cfg.BufferLen()
	rec := s.recBuf(bufLen)
	timingErr := s.timingErrorMeters(src, dst)
	arr := s.arrivalSample(truth, timingErr)

	reception := s.chn.Plan(truth, s.units[src], s.units[dst], s.rng)
	s.fillRecording(rec, reception, arr, s.cfg.BaselineChirpLen)

	// Residual echoes of earlier chirps / correlated urban noise: a short
	// burst of positives at a random pre-arrival offset (§3.3: "The
	// underestimates were primarily due to a tone detector's picking up
	// noises or echoes from earlier chirps as the acoustic signal").
	if arr > 8 && s.rng.Float64() < s.cfg.PreArrivalBurstProb {
		off := s.rng.Intn(arr - 4)
		for i := off; i < off+4+s.rng.Intn(8) && i < len(rec); i++ {
			rec[i] = true
		}
	}

	idx := firstRun(rec, 3)
	if idx < 0 {
		return 0, false
	}
	d := s.sampleToDistance(idx)
	if d <= 0.01 {
		return 0, false
	}
	return d, true
}

// firstRun returns the index of the first run of at least r consecutive
// true values, or -1.
func firstRun(rec []bool, r int) int {
	run := 0
	for i, b := range rec {
		if b {
			run++
			if run == r {
				return i - r + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}

// Campaign runs rounds of measurements over every ordered pair whose true
// distance is within maxPairDist and collects the raw directed readings.
// It mirrors the field procedure of Section 3.6 ("three rounds of
// measurements, with each sensor node emitting one sequence of 10 chirps
// per round"). Before any draw, non-positive rounds fail, and so does a NaN
// or negative maxPairDist, with measure.ErrMaxRange; +Inf admits every pair.
func (s *Service) Campaign(rounds int, maxPairDist float64) (*measure.Raw, error) {
	if rounds <= 0 {
		return nil, errors.New("ranging: Campaign: need positive rounds")
	}
	if !(maxPairDist >= 0) {
		return nil, fmt.Errorf("ranging: Campaign: %w, got %v", measure.ErrMaxRange, maxPairDist)
	}
	raw, err := measure.NewRaw(s.dep.N())
	if err != nil {
		return nil, err
	}
	for round := 0; round < rounds; round++ {
		for src := 0; src < s.dep.N(); src++ {
			for dst := 0; dst < s.dep.N(); dst++ {
				if src == dst {
					continue
				}
				if s.dep.Positions[src].Dist(s.dep.Positions[dst]) > maxPairDist {
					continue
				}
				if d, ok := s.MeasurePair(src, dst); ok {
					if err := raw.Add(src, dst, d); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return raw, nil
}

// CampaignSet runs a Campaign and reduces it with the given statistical
// filter and merge policy — the full pipeline from chirps to the
// measurement set localization consumes.
func (s *Service) CampaignSet(rounds int, maxPairDist float64, filter measure.FilterKind, opt measure.MergeOptions) (*measure.Set, error) {
	raw, err := s.Campaign(rounds, maxPairDist)
	if err != nil {
		return nil, err
	}
	directed := raw.Filter(filter, 5)
	return measure.Merge(s.dep.N(), directed, opt)
}
