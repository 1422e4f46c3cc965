package coord

// CI-driven stopping across the fleet: spec.DriveAuto's doubling loop with
// each round an ordinary fixed-N coordinated execution, whose range results
// land in the workers' caches, so with Options.Reuse on, the next (doubled)
// round adopts the previous round's ranges and computes only the extension.

import (
	"context"
	"time"

	"resilientloc/internal/engine/spec"
)

// ExecuteAuto drives an auto-trials spec across the worker fleet (see
// spec.DriveAuto), each round an ordinary coordinated Execute of a fixed-N
// spec. The returned Stats sums the additive counters (retries, hedges,
// steals, reused trials, ...) across rounds and takes the final round's
// shape (Trials, Ranges, Workers). A fixed-count spec just delegates to
// Execute.
func ExecuteAuto(ctx context.Context, sp spec.JobSpec, opts Options) (*spec.Value, Stats, error) {
	if sp.AutoTrials == nil {
		return Execute(ctx, sp, opts)
	}
	start := time.Now()
	var acc Stats
	val, _, err := spec.DriveAuto(sp, "coord", opts.Warnings, func(rs spec.JobSpec) (*spec.Value, error) {
		val, st, err := Execute(ctx, rs, opts)
		acc.Retries += st.Retries
		acc.Hedges += st.Hedges
		acc.DedupLosses += st.DedupLosses
		acc.Steals += st.Steals
		acc.Joined += st.Joined
		acc.Left += st.Left
		acc.ReusedTrials += st.ReusedTrials
		acc.ReusedRanges += st.ReusedRanges
		acc.Trials, acc.Ranges, acc.Workers = st.Trials, st.Ranges, st.Workers
		return val, err
	})
	if err != nil {
		return nil, acc, err
	}
	val.SetExecutionMeta(acc.Workers, time.Since(start).Seconds())
	return val, acc, nil
}
