package engine

// Campaign is the engine's unit of reusable work: "N trials → per-trial
// measurement → shard-merged aggregate → finalized result". It couples a
// Scenario with the execution knobs the workload needs (shard pinning,
// per-trial retention) and a Finalize step that turns the shard-merged
// Report into a result of type R.
//
// Both halves of the codebase run on campaigns: the scenario library wraps
// each Scenario via ReportCampaign (R = *Report), and every figure
// reproduction in internal/experiments builds a Campaign[*experiments.Result]
// whose Finalize assembles the figure from the report's trial values. One
// runner, one cache, one progress path serve both.
type Campaign[R any] struct {
	// Scenario describes the trials. Its Name is the campaign's identity —
	// cache keys and progress lines are derived from it.
	Scenario Scenario

	// ShardSize, when positive, pins the shard partition regardless of the
	// runner's Config. Campaigns whose trials are individually heavy (one
	// trial per sweep point, one optimizer descent per trial) set 1 so each
	// trial gets its own worker slot.
	ShardSize int

	// FixedTrials declares the scenario's trial count structural: trial
	// indices encode sweep points or ensemble membership that Finalize
	// hard-codes, so a runner-level Trials override is ignored rather than
	// truncating the structure out from under Finalize.
	FixedTrials bool

	// KeepTrialValues requests per-trial values (Report.TrialScalars,
	// TrialSeries) for Finalize, on top of the streaming aggregates. They
	// ride along in partials, so a retained campaign splits and merges like
	// any other.
	KeepTrialValues bool

	// Finalize converts the Report into the campaign's result. Nil is only
	// valid when R is *Report (see ReportCampaign).
	Finalize func(rep *Report) (R, error)
}

// RunCampaign executes the campaign's scenario under the runner's
// configuration — with the campaign's ShardSize/KeepTrialValues overrides
// applied — and finalizes the report. The returned Report is the raw
// shard-merged aggregate backing the result.
func RunCampaign[R any](r *Runner, c Campaign[R]) (R, *Report, error) {
	var zero R
	rep, err := (&Runner{cfg: c.apply(r.cfg)}).Run(c.Scenario)
	if err != nil {
		return zero, nil, err
	}
	res, err := FinalizeCampaign(c, rep)
	if err != nil {
		return zero, nil, err
	}
	return res, rep, nil
}

// apply overlays the campaign's execution overrides on a runner config.
func (c Campaign[R]) apply(cfg Config) Config {
	if c.ShardSize > 0 {
		cfg.ShardSize = c.ShardSize
	}
	if c.KeepTrialValues {
		cfg.KeepTrialValues = true
	}
	if c.FixedTrials {
		cfg.Trials = 0
	}
	return cfg
}

// CampaignConfig resolves the effective execution parameters RunCampaign
// would use — the ingredients of a cache key.
func CampaignConfig[R any](r *Runner, c Campaign[R]) (trials, shardSize int) {
	cfg := c.apply(r.cfg)
	return cfg.EffectiveTrials(c.Scenario), cfg.EffectiveShardSize()
}

// ReportCampaign wraps a bare Scenario as a campaign whose result is the
// Report itself, which is how the scenario library runs on the shared
// campaign path.
func ReportCampaign(s Scenario) Campaign[*Report] {
	return Campaign[*Report]{
		Scenario: s,
		Finalize: func(rep *Report) (*Report, error) { return rep, nil },
	}
}
