// Package engine is the concurrent scenario-execution subsystem: it runs
// parameterized Monte Carlo experiments (Scenarios) by sharding independent
// trials across a goroutine worker pool while keeping every result
// bit-for-bit reproducible.
//
// Determinism rests on two invariants:
//
//  1. Per-trial RNG derivation. Each trial's generator is seeded by a pure
//     function of (scenario seed, trial index) — DeriveSeed by default, or
//     the scenario's SeedFn when an experiment needs paper-faithful
//     seeding. A shard reuses one rand.Rand and reseeds it before each
//     trial, which resets all of its state, so no trial ever sees generator
//     state another left behind and the schedule cannot leak into the
//     results.
//
//  2. Shard-ordered aggregation. Trials are grouped into fixed-size shards
//     (independent of the worker count); each shard accumulates its metrics
//     into streaming aggregators (stats.Online + stats.QuantileSketch), and
//     shards are merged in ascending shard order after all workers finish.
//     Running with 1 worker or 64 therefore produces byte-identical
//     aggregates — every metric, quantile, series, and per-trial value;
//     only Report.Workers and Report.ElapsedSeconds reflect the actual run.
package engine

import (
	"fmt"
	"math/rand"

	"resilientloc/internal/scratch"
)

// DeriveSeed maps (scenario seed, trial index) to an independent per-trial
// seed using a splitmix64 finalizer, so consecutive trial indices yield
// uncorrelated generator streams.
func DeriveSeed(seed int64, trial int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(trial+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// TrialFunc executes one independent trial. It must derive all randomness
// from t.RNG and report measurements through t.Record / t.RecordSeries; it
// must not mutate state shared with other trials.
type TrialFunc func(t *T) error

// Scenario is a declarative description of a parameterized Monte Carlo
// experiment: what one trial does, how many trials make a run, and how
// trial seeds are derived.
type Scenario struct {
	Name        string
	Description string

	// Trials is the default trial count, used when the runner's Config
	// leaves Trials at 0.
	Trials int

	// MaxTrials, when positive, caps the effective trial count regardless
	// of the runner's Config. Scenarios whose trials index a fixed
	// parameter list (e.g. one trial per sweep distance) set this so a
	// larger -trials override cannot run them off the end of the list.
	MaxTrials int

	// SeedFn optionally overrides DeriveSeed. Figure reproductions use this
	// to keep the paper-faithful seed arithmetic of the original serial
	// loops, which makes porting them onto the engine output-preserving.
	SeedFn func(scenarioSeed int64, trial int) int64

	// Run executes one trial.
	Run TrialFunc

	// ShardInit, when set, is called once per shard (and once per
	// distributed raw trial range) before any of its trials run; the value
	// it returns is exposed to every trial as T.ShardData. It exists to
	// hoist per-scenario invariants — synthesized chirp templates,
	// environment tables — out of the trial loop. It MUST be a pure,
	// deterministic function of the scenario (no RNG, no trial index, no
	// mutable shared state): the runner calls it once per shard, so any
	// nondeterminism would break the worker-count independence of results.
	ShardInit func() any
}

// Validate checks that the scenario is runnable.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("engine: scenario has no name")
	}
	if s.Run == nil {
		return fmt.Errorf("engine: scenario %s has no trial function", s.Name)
	}
	if s.Trials < 0 {
		return fmt.Errorf("engine: scenario %s: negative default trial count", s.Name)
	}
	if s.MaxTrials < 0 {
		return fmt.Errorf("engine: scenario %s: negative trial cap", s.Name)
	}
	return nil
}

// seedFor returns the RNG seed for one trial.
func (s Scenario) seedFor(seed int64, trial int) int64 {
	if s.SeedFn != nil {
		return s.SeedFn(seed, trial)
	}
	return DeriveSeed(seed, trial)
}

// T is the per-trial context handed to a TrialFunc: the trial's private,
// deterministically seeded generator plus the metric recording surface.
type T struct {
	// Trial is this trial's index in [0, Trials).
	Trial int
	// RNG is the trial's generator, seeded for this trial alone. All
	// randomness must flow through it (or through samplers built on it).
	// The runner reseeds the same generator for the shard's next trial, so
	// a trial must not keep it, or anything that draws from it, after it
	// returns.
	RNG *rand.Rand
	// ShardData is the value the scenario's ShardInit hook returned for
	// this trial's shard (nil when the scenario has no ShardInit, or when
	// the T was built outside the runner). It is shared by every trial in
	// the shard and must be treated as read-only.
	ShardData any

	scalars []sample
	series  []seriesSample
	output  any
	ws      *scratch.Arena
}

// Scratch returns the shard worker's scratch arena. Buffers borrowed from
// it are valid only until the trial returns — the runner releases the arena
// between trials — so nothing reachable from Record/RecordSeries/Keep values
// may alias them (both Record methods copy, so recording is always safe).
// Outside the runner (unit tests calling a TrialFunc directly) the arena is
// nil, which every arena method treats as plain allocation.
func (t *T) Scratch() *scratch.Arena { return t.ws }

type sample struct {
	name  string
	value float64
}

type seriesSample struct {
	name   string
	values []float64
}

// Record reports one scalar sample of the named metric. A trial may record
// the same metric any number of times (e.g. once per measurement); every
// sample feeds the metric's aggregate, and the last one recorded is the
// trial's value in Report.TrialScalars.
func (t *T) Record(name string, v float64) {
	t.scalars = append(t.scalars, sample{name: name, value: v})
}

// RecordSeries reports an indexed series (e.g. an optimizer's objective
// history). Series are aggregated pointwise across trials, so every trial
// of a scenario must record a series of the same length under a given name;
// pad shorter histories before recording.
func (t *T) RecordSeries(name string, values []float64) {
	t.series = append(t.series, seriesSample{name: name, values: append([]float64(nil), values...)})
}

// Keep retains an arbitrary per-trial output value, surfaced (only under
// Config.KeepTrialValues) as Report.TrialOutputs[t.Trial]. Campaigns whose
// trials build structured results — e.g. a whole figure Result — hand them
// to their Finalize step this way. Calling Keep again replaces the value.
func (t *T) Keep(v any) {
	t.output = v
}
