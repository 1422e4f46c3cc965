package run

// Every full run is a plan: a cover of [0, trials) by cached partials to
// merge as-is and gaps to compute, executed gap by gap (runGap), merged and
// finalized. A cold plan is one [0, trials) gap.
//
// Prefix-reuse planner: when the session has a cache and the trial count can
// change, probe the cache for surviving range-keyed entries of the same
// content address (including entries banked under a *different* full trial
// count — per-trial computation depends only on scenario, seed, and trial
// index, so a partial of an old N is bit-valid under a new N whenever its
// shard geometry still lines up; see engine.AdaptPartial). Select a maximal
// disjoint chain of cached ranges, execute only the uncovered gaps, and
// merge — so extending a cached 1024-trial run to 4096 trials computes only
// trials [1024, 4096), byte-identical (modulo execution metadata) to a cold
// 4096-trial run.
//
// Every gap of a probed plan is banked under its own range key before the
// merge, and the merged result under the full key — which is what makes the
// *next* extension incremental: the full-key entry stores a finalized result
// with no mergeable shard state, so the range entries are the planner's
// entire raw material.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/cache"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// obsReusedTrials counts trials the planner satisfied from cached range
// entries instead of recomputing — the fleet-wide measure of how much work
// incremental extension is saving.
var obsReusedTrials = obs.Default().Counter("run_reused_trials_total")

// reusePlan is the planner's schedule for one job: the cover's cached
// partials to merge as-is and its gaps to compute, together tiling
// [0, trials) exactly, plus how many trials the cover reuses.
type reusePlan struct {
	engine.RangeCover
	reusedTrials int
}

// coldPlan is the schedule with nothing reusable: one gap covering the whole
// trial space.
func coldPlan(trials int) reusePlan {
	return reusePlan{RangeCover: engine.RangeCover{Gaps: [][2]int{{0, trials}}}}
}

// planReuse probes the cache for range entries sharing key's content address
// (any stamped trial count) and chains them with engine.CoverRanges. An
// entry that is evicted between probe and fetch, no longer decodes, or no
// longer adapts to the trial count is treated as absent, so a half-evicted
// cache degrades to wider gaps, never to an error.
func (s *Session) planReuse(key cache.Key, trials int, name string) reusePlan {
	entries, _ := s.cache.RangeEntries(key)
	cands := make([]engine.CachedRange, len(entries))
	for i, e := range entries {
		cands[i] = engine.CachedRange{Lo: e.Lo, Hi: e.Hi, Trials: e.Trials}
	}
	cv := engine.CoverRanges(trials, cands, func(i int) *engine.Partial {
		k := key
		k.Trials, k.RangeLo, k.RangeHi = entries[i].Trials, entries[i].Lo, entries[i].Hi
		var val spec.Value
		if hit, err := s.cache.Get(k, &val); err != nil || !hit {
			return nil
		}
		return val.Partial
	})
	for _, err := range cv.Rejected {
		fmt.Fprintf(s.warn, "warning: %s: %v\n", name, err)
	}
	plan := reusePlan{RangeCover: cv}
	for _, i := range cv.Chosen {
		plan.reusedTrials += cands[i].Hi - cands[i].Lo
	}
	return plan
}

// executePlanned runs a full job as a plan: schedule the gaps, execute them
// (runGap), merge them with any reused partials, finalize, and store the
// result under the full key. Every full run takes this path. The plan is
// probed against the cache (planReuse) only when the session has a cache
// and the campaign is not FixedTrials — a fixed trial count can never be
// extended, so range entries of it would never be reused. Otherwise the
// plan is cold: one [0, N) gap, not banked. The caller holds the key lock
// and has already missed on the full key.
func (s *Session) executePlanned(ctx context.Context, jobSpan *obs.Span, id string, job spec.Resolved, addr jobAddress, start time.Time) (*spec.Value, Info, error) {
	name := job.Campaign.Scenario.Name
	trials := job.TotalTrials
	probed := addr.keyHash != "" && !job.Campaign.FixedTrials
	plan := coldPlan(trials)
	if probed {
		_, planSpan := obs.Start(ctx, "run.plan")
		plan = s.planReuse(addr.key, trials, name)
		if planSpan != nil {
			planSpan.SetAttr("job", id).SetAttr("reused_trials", plan.reusedTrials).
				SetAttr("reused_ranges", len(plan.Chosen)).SetAttr("gaps", len(plan.Gaps))
		}
		planSpan.End()
		if plan.reusedTrials > 0 {
			obsReusedTrials.Add(int64(plan.reusedTrials))
			if jobSpan != nil {
				jobSpan.SetAttr("reused_trials", plan.reusedTrials)
			}
		}
	}

	res, err := s.runPlan(ctx, id, job, addr.key, plan, probed)
	if err != nil && plan.reusedTrials > 0 && ctx.Err() == nil {
		// Every reused entry decoded and adapted cleanly, yet the plan still
		// failed downstream — a cache inconsistency deeper than the per-entry
		// checks. Recompute from scratch rather than failing a job a cold
		// plan would have completed.
		fmt.Fprintf(s.warn, "warning: %s: discarding %d cached trials after plan failure: %v\n",
			name, plan.reusedTrials, err)
		plan = coldPlan(trials)
		res, err = s.runPlan(ctx, id, job, addr.key, plan, probed)
	}
	if err != nil {
		return nil, Info{}, err
	}

	executed := trials - plan.reusedTrials
	workers := 0
	if executed > 0 {
		// Mirror the engine's effective pool size for the report's execution
		// metadata (display only — the merged result carries none until it
		// is stamped below, after the Put).
		workers = s.opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = min(workers, job.Shards())
	}
	if addr.keyHash != "" {
		// Best-effort: a full disk or unwritable directory must not fail the
		// run whose result we already hold.
		_ = s.cache.Put(addr.key, res)
	}
	elapsed := time.Since(start)
	res.SetExecutionMeta(workers, elapsed.Seconds())
	return res, Info{
		Cached:       executed == 0,
		Trials:       trials,
		ReusedTrials: plan.reusedTrials,
		Elapsed:      elapsed,
		CacheKey:     addr.keyHash,
	}, nil
}

// runPlan executes a plan's gaps, merges them with the reused partials, and
// finalizes the campaign's full result; bank stores each gap under its
// range key. Progress reports cover the whole trial space: reused trials
// count as done from the start, and each gap's counters are offset by
// everything covered before it.
func (s *Session) runPlan(ctx context.Context, id string, job spec.Resolved, key cache.Key, plan reusePlan, bank bool) (*spec.Value, error) {
	trials := job.TotalTrials
	cb := s.progressCallback(job.Campaign.Scenario.Name, id)
	parts := make([]*engine.Partial, 0, len(plan.Parts)+len(plan.Gaps))
	parts = append(parts, plan.Parts...)
	covered := plan.reusedTrials
	for _, g := range plan.Gaps {
		lo, hi := g[0], g[1]
		var progress func(done, total int)
		if cb != nil {
			base := covered
			progress = func(done, _ int) { cb(base+done, trials) }
		}
		p, err := s.runGap(ctx, job, key, lo, hi, bank, progress)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
		covered += hi - lo
	}
	rep, err := engine.MergePartials(parts)
	if err != nil {
		return nil, err
	}
	return engine.FinalizeCampaign(job.Campaign, rep)
}

// runGap is the one gap executor: every trial the session computes — a
// range sub-job's, or a plan gap's — runs here. It executes trials
// [lo, hi) of job under the job's resolved geometry, adds them to the
// session's executed count and, when bank is set, stores the partial under
// key stamped with the range. A banked gap is on disk before any merge, so
// a crash past this point still leaves it for the next attempt to reuse.
// The Put is best-effort, like every Put.
func (s *Session) runGap(ctx context.Context, job spec.Resolved, key cache.Key, lo, hi int, bank bool, progress func(done, total int)) (*engine.Partial, error) {
	runner, err := engine.NewRunner(engine.Config{
		Workers:   s.opts.Workers,
		Trials:    job.TotalTrials,
		Seed:      job.Spec.Seed,
		ShardSize: job.ShardSize,
		Progress:  progress,
		Budget:    engine.SharedBudget(),
	})
	if err != nil {
		return nil, err
	}
	p, err := engine.RunCampaignPartialContext(ctx, runner, job.Campaign, lo, hi)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.trialsExecuted += hi - lo
	s.mu.Unlock()
	if bank {
		key.RangeLo, key.RangeHi = lo, hi
		_ = s.cache.Put(key, &spec.Value{Partial: p})
	}
	return p, nil
}
