package run

// Prefix-reuse planner: before computing a full cacheable run from scratch,
// probe the cache for surviving range-keyed entries of the same content
// address (including entries banked under a *different* full trial count —
// per-trial computation depends only on scenario, seed, and trial index, so
// a partial of an old N is bit-valid under a new N whenever its shard
// geometry still lines up; see engine.AdaptPartial). Select a maximal
// disjoint chain of cached ranges, execute only the uncovered gaps, and
// merge — so extending a cached 1024-trial run to 4096 trials computes only
// trials [1024, 4096), byte-identical (modulo execution metadata) to a cold
// 4096-trial run.
//
// Every executed gap is banked under its own range key before the merge, and
// the merged result under the full key — which is what makes the *next*
// extension incremental: the full-key entry stores a finalized result with
// no mergeable shard state, so the range entries are the planner's entire
// raw material.

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

// executePlanned is the planner-driven replacement for the classic full-run
// path: plan against the cache, execute the gaps, merge, finalize, and bank
// both the gap partials (range keys) and the merged result (full key). The
// caller holds the key lock and has already missed on the full key.
func (s *Session) executePlanned(ctx context.Context, jobSpan *obs.Span, id string, job spec.Resolved, key cache.Key, keyHash string, trials, shardSize int, start time.Time) (*spec.Value, Info, error) {
	name := job.Campaign.Scenario.Name

	_, planSpan := obs.Start(ctx, "run.plan")
	plan := s.planReuse(key, trials, name)
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

	res, err := s.runPlan(ctx, id, job, key, trials, plan)
	if err != nil && plan.reusedTrials > 0 && ctx.Err() == nil {
		// Every reused entry decoded and adapted cleanly, yet the plan still
		// failed downstream — a cache inconsistency deeper than the per-entry
		// checks. Recompute from scratch rather than failing a job the
		// classic path would have completed.
		fmt.Fprintf(s.warn, "warning: %s: discarding %d cached trials after plan failure: %v\n",
			name, plan.reusedTrials, err)
		plan = coldPlan(trials)
		res, err = s.runPlan(ctx, id, job, key, trials, plan)
	}
	if err != nil {
		return nil, Info{}, err
	}

	executed := trials - plan.reusedTrials
	workers := 0
	if executed > 0 {
		// Mirror the engine's effective pool size for the report's execution
		// metadata (display only — normalized out of the stored entry).
		workers = s.opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if shards := (trials + shardSize - 1) / shardSize; workers > shards {
			workers = shards
		}
	}
	res.ClearExecutionMeta()
	_ = s.cache.Put(key, res)
	elapsed := time.Since(start)
	res.SetExecutionMeta(workers, elapsed.Seconds())
	return res, Info{
		Cached:       executed == 0,
		Trials:       trials,
		ReusedTrials: plan.reusedTrials,
		Elapsed:      elapsed,
		CacheKey:     keyHash,
	}, nil
}

// runPlan executes a plan's gaps (banking each under its range key), merges
// them with the reused partials, and finalizes the campaign's full result.
// Progress reports cover the whole trial space: reused trials count as done
// from the start, and each gap's counters are offset by everything covered
// before it.
func (s *Session) runPlan(ctx context.Context, id string, job spec.Resolved, key cache.Key, trials int, plan reusePlan) (*spec.Value, error) {
	c := job.Campaign
	cb := s.progressCallback(c.Scenario.Name, id)
	parts := make([]*engine.Partial, 0, len(plan.Parts)+len(plan.Gaps))
	parts = append(parts, plan.Parts...)
	covered := plan.reusedTrials
	for _, g := range plan.Gaps {
		lo, hi := g[0], g[1]
		var progress func(done, total int)
		if cb != nil {
			base := covered
			progress = func(done, total int) { cb(base+done, trials) }
		}
		runner, err := engine.NewRunner(engine.Config{
			Workers:   s.opts.Workers,
			Trials:    job.Spec.Trials,
			Seed:      job.Spec.Seed,
			ShardSize: job.Spec.ShardSize,
			Progress:  progress,
			Budget:    engine.SharedBudget(),
		})
		if err != nil {
			return nil, err
		}
		p, err := engine.RunCampaignPartialContext(ctx, runner, c, lo, hi)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.trialsExecuted += hi - lo
		s.mu.Unlock()
		// Bank the gap before the merge: a crash past this point still leaves
		// the range on disk for the next attempt to reuse. Best-effort, like
		// every Put.
		rk := key
		rk.RangeLo, rk.RangeHi = lo, hi
		_ = s.cache.Put(rk, &spec.Value{Partial: p})
		parts = append(parts, p)
		covered += hi - lo
	}
	rep, err := engine.MergePartials(parts)
	if err != nil {
		return nil, err
	}
	return engine.FinalizeCampaign(c, rep)
}
