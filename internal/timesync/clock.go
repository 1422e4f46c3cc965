// Package timesync models the node clocks and the FTSP-style MAC-layer time
// synchronization the ranging service relies on (paper Section 3.1, "Clock
// Synchronization"). Physical motes drift relative to true time at up to
// ~50 µs/s; MAC-layer timestamping of the very ranging message removes most
// radio nondeterminism and leaves a small residual synchronization error.
//
// The simulation works in float64 seconds of "true" time; a Clock converts
// between true time and its own local time.
package timesync

import (
	"errors"
	"math/rand"
)

// MaxSkewPPM is the paper's bound on mote clock rate difference: 50 µs per
// second, i.e. 50 ppm.
const MaxSkewPPM = 50.0

// Clock models one node's oscillator: local = (1 + skew)·true + offset.
type Clock struct {
	skew   float64 // fractional rate error (e.g. 40e-6 for +40 ppm)
	offset float64 // seconds of constant offset
}

// NewClock creates a clock with the given fractional skew and offset.
func NewClock(skew, offset float64) Clock {
	return Clock{skew: skew, offset: offset}
}

// RandomClock draws a clock whose skew is uniform within ±MaxSkewPPM and
// whose offset is uniform within ±maxOffset seconds.
func RandomClock(rng *rand.Rand, maxOffset float64) Clock {
	return Clock{
		skew:   (rng.Float64()*2 - 1) * MaxSkewPPM * 1e-6,
		offset: (rng.Float64()*2 - 1) * maxOffset,
	}
}

// Local converts a true time to this clock's local time.
func (c Clock) Local(trueTime float64) float64 {
	return (1+c.skew)*trueTime + c.offset
}

// trueFromLocal converts local time back to true time.
func (c Clock) trueFromLocal(local float64) float64 {
	return (local - c.offset) / (1 + c.skew)
}

// SyncModel captures the residual error of MAC-layer timestamp exchange: a
// zero-mean jitter plus the skew-induced drift over the short measurement
// interval. With FTSP-style stamping the residual per-exchange jitter is a
// few microseconds.
type SyncModel struct {
	// JitterStd is the standard deviation of the residual timestamping
	// error per exchange, seconds. FTSP on MICA2 achieves a few µs.
	JitterStd float64
	// Interval is the elapsed time between synchronization and the acoustic
	// time-of-arrival measurement, seconds. Skew accumulates over it.
	Interval float64
}

// DefaultSyncModel returns the paper-calibrated model: ~2 µs residual jitter
// and a 100 ms sync-to-measurement interval (the radio message immediately
// precedes the chirp, §3.1).
func DefaultSyncModel() SyncModel {
	return SyncModel{JitterStd: 2e-6, Interval: 0.1}
}

// Validate checks the model parameters.
func (m SyncModel) Validate() error {
	if m.JitterStd < 0 || m.Interval < 0 {
		return errors.New("timesync: negative SyncModel parameter")
	}
	return nil
}

// SyncError draws the residual time error (seconds) between a source and
// destination clock after one MAC-layer timestamp exchange: timestamp jitter
// plus relative skew accumulated over the interval. Multiply by the speed of
// sound for the equivalent ranging error — at the paper's parameters it is
// ≈0.15 cm over 30 m, negligible versus acoustic effects (§3.1).
func (m SyncModel) SyncError(src, dst Clock, rng *rand.Rand) float64 {
	drift := (dst.skew - src.skew) * m.Interval
	jitter := 0.0
	if m.JitterStd > 0 {
		jitter = rng.NormFloat64() * m.JitterStd
	}
	return drift + jitter
}
