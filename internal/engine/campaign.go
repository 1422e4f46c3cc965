package engine

// Campaign is the engine's unit of reusable work: "N trials → per-trial
// measurement → shard-merged aggregate → finalized result". It couples a
// Scenario with the execution knobs the workload needs (shard pinning, a
// structural trial count) and a Finalize step that turns the shard-merged
// Report into a result of type R.
//
// Both halves of the codebase run on campaigns: every scenario is wrapped
// via ReportCampaign (R = *Report), and every figure
// reproduction in internal/experiments builds a Campaign[*experiments.Result]
// whose Finalize assembles the figure from the report's aggregates. A
// figure that needs one trial's value records it under a per-trial name and
// reads back that name's one-sample aggregate. One runner, one cache, one
// progress path serve both.
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

	// Finalize converts the Report into the campaign's result. Nil is only
	// valid when R is *Report (see ReportCampaign).
	Finalize func(rep *Report) (R, error)
}

// RunCampaign runs the campaign's whole trial space the way every job runs:
// the [0, trials) partial, merged (MergePartials) and finalized
// (FinalizeCampaign). The returned Report is the merged aggregate backing
// the result, without execution metadata.
func RunCampaign[R any](r *Runner, c Campaign[R]) (R, *Report, error) {
	var zero R
	trials, _ := c.Geometry(r.cfg.Trials, r.cfg.ShardSize)
	p, err := RunCampaignPartial(r, c, 0, trials)
	if err != nil {
		return zero, nil, err
	}
	rep, err := MergePartials([]*Partial{p})
	if err != nil {
		return zero, nil, err
	}
	res, err := FinalizeCampaign(c, rep)
	if err != nil {
		return zero, nil, err
	}
	return res, rep, nil
}

// Geometry resolves the trial count and shard size a run of the campaign
// covers, given the runner-level overrides trials and shardSize (0 = none):
// the trial override unless FixedTrials, else the scenario default, capped
// at MaxTrials; the campaign's ShardSize pin, else the override, else
// DefaultShardSize. Shards and cache keys are derived from these values.
func (c Campaign[R]) Geometry(trials, shardSize int) (int, int) {
	if trials <= 0 || c.FixedTrials {
		trials = c.Scenario.Trials
	}
	if c.Scenario.MaxTrials > 0 && trials > c.Scenario.MaxTrials {
		trials = c.Scenario.MaxTrials
	}
	if c.ShardSize > 0 {
		shardSize = c.ShardSize
	} else if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	return trials, shardSize
}

// ReportCampaign wraps a bare Scenario as a campaign whose result is the
// Report itself, which is how every scenario runs on the shared
// campaign path.
func ReportCampaign(s Scenario) Campaign[*Report] {
	return Campaign[*Report]{
		Scenario: s,
		Finalize: func(rep *Report) (*Report, error) { return rep, nil },
	}
}
