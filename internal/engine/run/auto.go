package run

// CI-driven stopping (auto-trials mode): instead of a fixed trial count,
// the spec carries a target confidence-interval half-width, and the
// executor runs a doubling sequence of ordinary fixed-N rounds until the
// target is met. Every round is a normal cacheable job — its hash and cache
// key are exactly those of an explicit "trials": N submission — so each
// round's result persists, the prefix-reuse planner turns the next round
// into an increment over it, and a later invocation (same session or not)
// resumes the sequence from whatever the cache still holds instead of
// restarting.

import (
	"context"
	"time"

	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// obsAutoRounds counts auto-trials rounds executed (each round is one
// ordinary fixed-N job).
var obsAutoRounds = obs.Default().Counter("run_auto_rounds_total")

// executeAuto drives an auto-trials spec through spec.DriveAuto, each round
// an ordinary fixed-N execution through the session, so caching and prefix
// reuse apply. The returned Info is the final round's, with Elapsed
// covering the whole sequence and ReusedTrials reporting how much of the
// final round came from cache (earlier rounds of this same call included).
func executeAuto(ctx context.Context, s *Session, sp spec.JobSpec) (*spec.Value, Info, error) {
	start := time.Now()
	ctx, autoSpan := obs.Start(ctx, "run.auto")
	if autoSpan != nil {
		autoSpan.SetAttr("scenario", sp.ID).SetAttr("ci_target", sp.AutoTrials.CITarget)
	}
	defer autoSpan.End()
	var info Info
	rounds := 0
	res, hw, err := spec.DriveAuto(sp, "run", s.warn, func(rs spec.JobSpec) (*spec.Value, error) {
		res, roundInfo, err := ExecuteSpecContext(ctx, s, rs)
		if err != nil {
			return nil, err
		}
		obsAutoRounds.Inc()
		rounds++
		info = roundInfo
		return res, nil
	})
	if err != nil {
		return nil, Info{}, err
	}
	if autoSpan != nil {
		autoSpan.SetAttr("rounds", rounds).SetAttr("trials", res.Report.Trials).SetAttr("ci_half_width", hw)
	}
	info.Elapsed = time.Since(start)
	return res, info, nil
}
