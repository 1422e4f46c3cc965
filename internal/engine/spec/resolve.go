package spec

import (
	"fmt"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/params"
	"resilientloc/internal/experiments"
)

// Value is the uniform result of a spec-driven execution: exactly one field
// is set, matching the spec's kind — or Partial, for either kind, when the
// spec restricts execution to a proper trial sub-range. One concrete result
// type is what lets one runner, one cache entry shape, and one service
// response carry every campaign in the repository.
type Value struct {
	// Figure is the result of a KindFigure job.
	Figure *experiments.Result `json:"figure,omitempty"`
	// Report is the result of a KindScenario job.
	Report *engine.Report `json:"report,omitempty"`
	// Partial is the result of a job with a proper trial sub-range: the
	// serialized shard aggregates of that range, mergeable by the
	// coordinator (engine.MergePartials) into the full campaign result.
	Partial *engine.Partial `json:"partial,omitempty"`
}

// ClearExecutionMeta strips the per-invocation execution metadata (worker
// count, wall time) so a cached Value never replays the populating run's
// numbers. Figure results carry no execution metadata.
func (v *Value) ClearExecutionMeta() {
	if v.Report != nil {
		v.Report.ClearExecutionMeta()
	}
}

// SetExecutionMeta stamps the current invocation's execution metadata.
func (v *Value) SetExecutionMeta(workers int, elapsedSeconds float64) {
	if v.Report != nil {
		v.Report.SetExecutionMeta(workers, elapsedSeconds)
	}
}

// Resolved couples a validated spec with the executable campaign it names
// and the job's geometry: its trial space, shard size and trial range.
// Resolve is the one place that decides the geometry. The unified runner
// (internal/engine/run) and the coordinator execute, cache-key and schedule
// a job by these fields as they stand and never re-derive them, so a
// hand-built Resolved — tests construct one around a synthetic campaign —
// must fill Trials, TotalTrials and ShardSize as Resolve would.
type Resolved struct {
	// Spec is the job description this was resolved from.
	Spec JobSpec
	// Campaign is the executable campaign, finalizing into a *Value.
	Campaign engine.Campaign[*Value]
	// Trials is the effective trial count this job executes: the campaign's
	// full count, or the range size for a partial job.
	Trials int
	// TotalTrials is the campaign's full trial space [0, TotalTrials) —
	// equal to Trials unless the job is partial.
	TotalTrials int
	// ShardSize is the effective shard size.
	ShardSize int
	// Params is the fully-resolved operating point — every declared
	// parameter present, defaults filled — for a parameterized job, nil for
	// a param-less one. It is what cache keys embed (so a spec spelling out
	// a default shares the cache entry of one omitting it) and what job
	// summaries display.
	Params params.Map
}

// PartialRange returns the proper trial sub-range this job executes, or nil
// when the job covers the full trial space (including a TrialRange that
// spells out the full range).
func (r Resolved) PartialRange() *Range {
	rg := r.Spec.TrialRange
	if rg == nil || (rg.Lo == 0 && rg.Hi == r.TotalTrials) {
		return nil
	}
	return rg
}

// Shards returns the number of aggregation shards the job partitions into.
func (r Resolved) Shards() int {
	if r.ShardSize <= 0 {
		return 0
	}
	return (r.Trials + r.ShardSize - 1) / r.ShardSize
}

// wrapCampaign lifts a campaign of any result type into one finalizing to a
// *Value via wrap.
func wrapCampaign[R any](c engine.Campaign[R], wrap func(R) *Value) engine.Campaign[*Value] {
	return engine.Campaign[*Value]{
		Scenario:        c.Scenario,
		ShardSize:       c.ShardSize,
		FixedTrials:     c.FixedTrials,
		KeepTrialValues: c.KeepTrialValues,
		Finalize: func(rep *engine.Report) (*Value, error) {
			r, err := c.Finalize(rep)
			if err != nil {
				return nil, err
			}
			return wrap(r), nil
		},
	}
}

// Resolve validates the spec and maps it onto its registry:
// experiments.Find for figures, engine.BuildScenario for scenarios (which
// covers both the compiled-in library and the parameterized factories). The
// returned job carries the effective trial/shard parameters and the
// resolved operating point, so callers can size, order, and cache-key the
// work before running any of it.
func Resolve(s JobSpec) (Resolved, error) {
	if err := s.Validate(); err != nil {
		return Resolved{}, err
	}
	if s.AutoTrials != nil {
		// An auto spec is a driving recipe for a *sequence* of fixed-count
		// jobs, not one resolvable execution: the runner's auto loop
		// (run.ExecuteSpecContext, coord.ExecuteAuto) peels the rule off and
		// resolves each round's explicit-N spec instead. Rejecting here
		// keeps every direct consumer of Resolve — locd submissions, suite
		// batches, the coordinator's sub-jobs — from silently treating the
		// recipe as a single job.
		return Resolved{}, fmt.Errorf("spec: %s: auto_trials specs drive a round sequence; execute via the session runner or coordinator auto mode, not as one resolved job", s.ID)
	}
	var campaign engine.Campaign[*Value]
	var resolvedParams params.Map
	switch s.Kind {
	case KindFigure:
		e, ok := experiments.Find(s.ID)
		if !ok {
			return Resolved{}, fmt.Errorf("spec: unknown figure job %q", s.ID)
		}
		if len(e.Params) > 0 {
			p, err := e.Params.Resolve(s.Params)
			if err != nil {
				return Resolved{}, fmt.Errorf("spec: figure %q: %w", s.ID, err)
			}
			resolvedParams = p
		} else if len(s.Params) > 0 {
			return Resolved{}, fmt.Errorf("spec: figure %q takes no parameters (params: %s)",
				s.ID, s.Params.Canonical())
		}
		c := e.Campaign(s.Seed, resolvedParams)
		campaign = wrapCampaign(c, func(r *experiments.Result) *Value { return &Value{Figure: r} })
	case KindScenario:
		sc, p, err := engine.BuildScenario(s.ID, s.Params)
		if err != nil {
			return Resolved{}, fmt.Errorf("spec: %w", err)
		}
		resolvedParams = p
		campaign = wrapCampaign(engine.ReportCampaign(sc), func(r *engine.Report) *Value { return &Value{Report: r} })
	}
	// Resolve the effective execution parameters exactly as the engine will:
	// spec overrides into the config, campaign pins on top.
	runner, err := engine.NewRunner(engine.Config{Trials: s.Trials, ShardSize: s.ShardSize, Seed: s.Seed})
	if err != nil {
		return Resolved{}, fmt.Errorf("spec: %s: %w", s.ID, err)
	}
	trials, shardSize := engine.CampaignConfig(runner, campaign)
	if trials <= 0 {
		return Resolved{}, fmt.Errorf("spec: %s: no trial count configured", s.ID)
	}
	job := Resolved{Spec: s, Campaign: campaign, Trials: trials, TotalTrials: trials, ShardSize: shardSize, Params: resolvedParams}
	if r := s.TrialRange; r != nil {
		if r.Hi > trials {
			return Resolved{}, fmt.Errorf("spec: %s: trial range [%d, %d) exceeds the job's %d trials",
				s.ID, r.Lo, r.Hi, trials)
		}
		if rg := job.PartialRange(); rg != nil {
			// A partial job's work — and what its trials/progress counters
			// describe — is the range, not the full campaign.
			job.Trials = rg.Hi - rg.Lo
		}
	}
	return job, nil
}

// ResolveAll resolves every spec, failing on the first unresolvable one —
// a batch with an unknown or unrunnable job is rejected before any work
// starts.
func ResolveAll(specs []JobSpec) ([]Resolved, error) {
	jobs := make([]Resolved, len(specs))
	for i, s := range specs {
		r, err := Resolve(s)
		if err != nil {
			return nil, err
		}
		jobs[i] = r
	}
	return jobs, nil
}
