// Package spec is the declarative, wire-addressable job surface of the
// engine: a JobSpec is a JSON-serializable description of one campaign
// execution — which experiment or scenario, at which seed, with
// which trial/shard overrides — that can be validated, canonically encoded,
// content-addressed, and resolved onto the in-process registries
// (internal/experiments and the engine's scenario factories).
//
// Everything that executes campaigns goes through specs: both CLIs compile
// their flags into specs (and accept ready-made spec files via -spec), and
// the locd service accepts spec batches over HTTP. A spec's canonical
// encoding doubles as its identity: Hash() is the job ID locd serves, and —
// because the spec carries exactly the inputs a campaign result is a pure
// function of — identical specs are the same job, which is what makes
// submissions deduplicable across processes and machines.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/params"
)

// Job kinds: which registry the spec's ID names.
const (
	// KindFigure runs a paper-figure reproduction from internal/experiments.
	KindFigure = "figure"
	// KindScenario runs a scenario built by an engine scenario factory.
	KindScenario = "scenario"
)

// Range is a half-open trial range [Lo, Hi). It is the suite-sharding
// coordination record: the coordinator (internal/engine/coord) hands each
// worker process a sub-range of one spec's trials as its own
// content-addressed job, and merges the returned shard aggregates into the
// full result. A spec carrying a proper sub-range resolves to a partial
// job whose result is a serialized engine.Partial rather than a finalized
// figure or report; a range covering the whole trial space is equivalent to
// omitting it (though the two hash to distinct job IDs).
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// JobSpec declares one campaign execution. The zero values of the optional
// fields mean "use the campaign's defaults", so the minimal useful spec is
// {"kind": "figure", "id": "fig06", "seed": 1}.
type JobSpec struct {
	// Kind selects the registry: KindFigure or KindScenario.
	Kind string `json:"kind"`
	// ID names the job within its registry: an experiment ID ("fig06",
	// "maxrange") or a scenario factory name ("multilat-town").
	ID string `json:"id"`
	// Seed is the base seed; results are deterministic per seed.
	Seed int64 `json:"seed"`
	// Trials overrides the scenario's default trial count when positive.
	// Figure jobs pin their trial structure and reject an override.
	Trials int `json:"trials,omitempty"`
	// ShardSize overrides the engine's default shard partition when
	// positive. Like Trials it is a cache-key ingredient; figure jobs pin
	// their own partitions and reject an override.
	ShardSize int `json:"shard_size,omitempty"`
	// TrialRange optionally restricts execution to a trial sub-range for
	// distributed suite sharding; see Range.
	TrialRange *Range `json:"trial_range,omitempty"`
	// Params selects one operating point of a parameterized workload — a
	// scenario factory (engine.Factories) or a parameterized experiment.
	// Omitted params take the schema's defaults; names and values are
	// validated against the schema at Resolve time. The map encodes with
	// sorted keys and shortest-form numbers (see params.Map), so the
	// operating point is part of the spec's content address; nil and empty
	// are both omitted, keeping every pre-params spec's hash unchanged.
	Params params.Map `json:"params,omitempty"`
	// AutoTrials switches a scenario job to confidence-interval-driven
	// stopping instead of a fixed trial count; see AutoTrials. An auto spec
	// is a driver recipe, not a single execution: it never resolves or
	// hashes as one job. The executor (run.ExecuteSpecContext locally,
	// coord.ExecuteAuto distributed, both through DriveAuto) runs a
	// sequence of fixed-N rounds —
	// each an ordinary spec whose hash and cache key are exactly those of
	// an explicit "trials": N submission, so rounds share cache entries
	// with explicit runs and the prefix-reuse planner turns each round into
	// an increment over the last. Mutually exclusive with Trials and
	// TrialRange; omitted for fixed-count specs, keeping every earlier
	// spec's hash unchanged.
	AutoTrials *AutoTrials `json:"auto_trials,omitempty"`
}

// AutoTrials is the CI-driven stopping rule of an auto-trials spec: keep
// doubling the trial count (persisting every round through the result
// cache, so later runs extend rather than restart) until the 95%
// confidence-interval half-width of the job's headline metric falls below
// CITarget.
type AutoTrials struct {
	// CITarget is the target 95% CI half-width on the stopping metric, in
	// the metric's own units. Must be positive.
	CITarget float64 `json:"ci_target"`
	// Metric names the stopping metric; empty selects the report's headline
	// (first-recorded) metric.
	Metric string `json:"metric,omitempty"`
	// MaxTrials caps the growth; 0 means DefaultAutoMaxTrials. The run also
	// stops early when the scenario's own trial ceiling (engine
	// MaxTrials clamping) makes further requests ineffective.
	MaxTrials int `json:"max_trials,omitempty"`
}

// DefaultAutoMaxTrials bounds auto-trials growth when the spec does not cap
// it: a stopping rule that cannot be met must terminate, not run forever.
const DefaultAutoMaxTrials = 1 << 20

// Cap returns the effective trial ceiling of the stopping rule.
func (a *AutoTrials) Cap() int {
	if a.MaxTrials > 0 {
		return a.MaxTrials
	}
	return DefaultAutoMaxTrials
}

// NextTrials returns the trial count of the round after one that ran
// effective trials: doubled, clamped to Cap.
func (a *AutoTrials) NextTrials(effective int) int {
	next := effective * 2
	if next < 1 {
		next = 1
	}
	if c := a.Cap(); next > c {
		next = c
	}
	return next
}

// DriveAuto runs an auto-trials spec's doubling sequence: round executes one
// ordinary fixed-count round — sp with its stopping rule peeled off and
// Trials set — and returns its value. The sequence starts at the scenario's
// default count (clamped to the cap) and doubles until the 95% CI
// half-width of the stopping metric reaches the target, the cap is hit, or
// the scenario's own ceiling stops growth (a round runs no more trials than
// the one before). A stop above target is a warning on warn (nil means
// stderr), not an error; layer prefixes it and the driver's own errors. It
// returns the final round's value and CI half-width.
func DriveAuto(sp JobSpec, layer string, warn io.Writer, round func(rs JobSpec) (*Value, error)) (*Value, float64, error) {
	if err := sp.Validate(); err != nil {
		return nil, 0, err
	}
	auto := sp.AutoTrials
	base := sp
	base.AutoTrials = nil
	// Round zero runs the scenario's default count: resolve the fixed spec
	// once to learn what that is.
	job, err := Resolve(base)
	if err != nil {
		return nil, 0, err
	}
	if warn == nil {
		warn = os.Stderr
	}
	n := min(job.TotalTrials, auto.Cap())
	prevEffective := 0
	for {
		rs := base
		rs.Trials = n
		val, err := round(rs)
		if err != nil {
			return nil, 0, err
		}
		rep := val.Report
		if rep == nil {
			return nil, 0, fmt.Errorf("%s: %s: auto-trials round produced no report", layer, sp.ID)
		}
		// The scenario may clamp the request (engine MaxTrials), so the
		// stopping arithmetic uses what actually ran, not what was asked.
		effective := rep.Trials
		hw, err := engine.CIHalfWidth(rep, auto.Metric)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %s: auto-trials: %w", layer, sp.ID, err)
		}
		done := hw <= auto.CITarget
		if done || effective == prevEffective || effective >= auto.Cap() {
			if !done {
				fmt.Fprintf(warn, "%s: %s: auto-trials stopped at %d trials with CI half-width %.6g above target %.6g\n",
					layer, sp.ID, effective, hw, auto.CITarget)
			}
			return val, hw, nil
		}
		prevEffective = effective
		n = auto.NextTrials(effective)
	}
}

// Validate checks the spec's self-contained invariants (registry lookups
// happen in Resolve).
func (s JobSpec) Validate() error {
	switch s.Kind {
	case KindFigure, KindScenario:
	case "":
		return fmt.Errorf("spec: missing kind (want %q or %q)", KindFigure, KindScenario)
	default:
		return fmt.Errorf("spec: unknown kind %q (want %q or %q)", s.Kind, KindFigure, KindScenario)
	}
	if s.ID == "" {
		return fmt.Errorf("spec: missing id")
	}
	if s.Trials < 0 {
		return fmt.Errorf("spec: %s: negative trial count %d", s.ID, s.Trials)
	}
	if s.ShardSize < 0 {
		return fmt.Errorf("spec: %s: negative shard size %d", s.ID, s.ShardSize)
	}
	if s.Kind == KindFigure {
		// A figure's trial structure (trial count, shard partition) is part
		// of its definition; silently ignoring an override would make
		// equal-looking specs hash differently while producing the same
		// bytes, so reject instead.
		switch {
		case s.Trials != 0:
			return fmt.Errorf("spec: %s: figure jobs pin their trial count; drop \"trials\"", s.ID)
		case s.ShardSize != 0:
			return fmt.Errorf("spec: %s: figure jobs pin their shard partition; drop \"shard_size\"", s.ID)
		}
	}
	if r := s.TrialRange; r != nil {
		if r.Lo < 0 || r.Hi <= r.Lo {
			return fmt.Errorf("spec: %s: invalid trial range [%d, %d)", s.ID, r.Lo, r.Hi)
		}
	}
	if a := s.AutoTrials; a != nil {
		// Auto mode owns the trial count round by round, so every other way
		// of pinning or slicing the trial space conflicts with it.
		switch {
		case s.Kind != KindScenario:
			return fmt.Errorf("spec: %s: auto_trials applies to scenario jobs only", s.ID)
		case s.Trials != 0:
			return fmt.Errorf("spec: %s: auto_trials and \"trials\" conflict; drop one", s.ID)
		case s.TrialRange != nil:
			return fmt.Errorf("spec: %s: auto_trials and \"trial_range\" conflict; drop one", s.ID)
		case !(a.CITarget > 0) || math.IsInf(a.CITarget, 0):
			// The negated comparison also rejects NaN, and non-finite targets
			// would break the spec's canonical JSON encoding.
			return fmt.Errorf("spec: %s: auto_trials.ci_target must be a positive finite number, got %v", s.ID, a.CITarget)
		case a.MaxTrials < 0:
			return fmt.Errorf("spec: %s: negative auto_trials.max_trials %d", s.ID, a.MaxTrials)
		}
	}
	// Schema checks (names, bounds) happen in Resolve, where the registry
	// is known; here only the value-level invariant that keeps Canonical
	// total: every param must be encodable (JSON can't produce NaN/Inf, but
	// in-process constructed specs could).
	if err := s.Params.Validate(); err != nil {
		return fmt.Errorf("spec: %s: %w", s.ID, err)
	}
	return nil
}

// Canonical returns the spec's canonical encoding: the compact JSON of the
// struct with optional zero-value fields omitted, so every way of writing
// the same job ("trials": 0, field order, whitespace) encodes to the same
// bytes. The encoding is what Hash addresses and what decodes back to an
// equal spec.
func (s JobSpec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// JobSpec is strings, integers, a flat pointer struct, and a params
		// map whose only marshal failures (zero or non-finite values) are
		// rejected by Validate — unreachable on a validated spec.
		panic(fmt.Sprintf("spec: marshal: %v", err))
	}
	return b
}

// Hash returns the spec's content address — the hex SHA-256 of its
// canonical encoding. Identical specs are the same job: locd uses this as
// the wire-visible job ID and deduplicates submissions on it.
func (s JobSpec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

// Decode reads one spec or a JSON array of specs from r. Unknown fields are
// rejected (a typoed knob must not silently become a default), every spec is
// validated, and an empty list is an error.
func Decode(r io.Reader) ([]JobSpec, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("spec: read: %w", err)
	}
	trimmed := bytes.TrimLeft(b, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("spec: empty input")
	}
	var specs []JobSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if trimmed[0] == '[' {
		err = dec.Decode(&specs)
	} else {
		var one JobSpec
		if err = dec.Decode(&one); err == nil {
			specs = []JobSpec{one}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("spec: decode: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after the spec document")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("spec: no jobs in input")
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("spec %d/%d: %w", i+1, len(specs), err)
		}
	}
	return specs, nil
}

// LoadFile decodes a spec file (one spec object or an array).
func LoadFile(path string) ([]JobSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	defer f.Close()
	specs, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return specs, nil
}

// LoadFileOfKind decodes a spec file and requires every spec to be of one
// kind — the shared guard for single-kind front-ends (cmd/experiments runs
// figure specs, cmd/scenarios scenario specs; locd runs both).
func LoadFileOfKind(path, kind string) ([]JobSpec, error) {
	specs, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if s.Kind != kind {
			return nil, fmt.Errorf("%s: spec %s has kind %q; this command runs %s specs (use the other CLI or locd)",
				path, s.ID, s.Kind, kind)
		}
	}
	return specs, nil
}
