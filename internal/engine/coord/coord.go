// Package coord is the distributed trial-range coordinator: it splits one
// declarative job (spec.JobSpec) into contiguous trial_range sub-jobs, fans
// them out to a fleet of locd workers over the service's own wire API
// (POST /v1/jobs + NDJSON event streams), retries failed or stalled ranges
// on surviving workers, and merges the returned partial aggregates
// (engine.Partial) into the job's full result — byte-identical to a
// single-process run, for any partition of the trial space and any worker
// topology.
//
// Determinism rests on the engine's partial-execution contract
// (engine.MergePartials): each sub-range's aggregate restores or replays
// the exact shard states the full run computes, so the coordinator only
// has to guarantee coverage — every range completed exactly once in the
// merge set. Each sub-job is content-addressed (the spec hash is the job
// ID, and the range-extended cache key is the on-disk coordination
// record), which makes duplicate completions harmless: a range retried or
// hedged onto a second worker yields the same job ID and the same bytes,
// and the coordinator keeps whichever copy arrives first.
//
// Scheduling is elastic: each worker draws chunks from its own contiguous
// assignment — roughly half of what remains at a time, shard-sized at the
// tail — and an idle worker steals the tail half of the largest
// unsubmitted assignment in the fleet. Because only *unsubmitted* work
// moves, stealing never duplicates a trial, and the chunks still tile the
// trial space exactly, so the merged bytes are unchanged. The coordinator
// can discover its fleet from a membership registry (Options.Discover,
// internal/engine/fleet) — re-polled during the run, so a worker that
// joins mid-run is put to work by stealing — and, with Options.Reuse,
// adopts what the fleet's caches already hold: a predecessor's finished
// ranges, ranges banked under other trial counts, or the whole result.
package coord

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/fleet"
	"resilientloc/internal/engine/progress"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// Coordinator telemetry: fleet-level counters for the range lifecycle. A
// range completes exactly once (coord_ranges_total); extra submissions show
// up as retries (worker failed) or hedges (worker stalled), and a hedge that
// loses the completion race increments coord_dedup_losses_total — the cost
// of the hedging policy, distinct from its benefit. Steals count unsubmitted
// work moved to an idle worker (free by construction), and reused trials
// count work adopted from the fleet's range-keyed caches (Options.Reuse).
var (
	obsRanges    = obs.Default().Counter("coord_ranges_total")
	obsRetries   = obs.Default().Counter("coord_retries_total")
	obsHedges    = obs.Default().Counter("coord_hedges_total")
	obsDedupLoss = obs.Default().Counter("coord_dedup_losses_total")
	obsSteals    = obs.Default().Counter("coord_steals_total")
	obsReused    = obs.Default().Counter("coord_reused_trials_total")
)

// DefaultStallTimeout is how long a range may go without any event-stream
// activity before the coordinator hedges it onto another worker. Progress
// events arrive per completed shard, so this must comfortably exceed one
// shard's compute time.
const DefaultStallTimeout = 5 * time.Minute

// DefaultDiscoverInterval is how often the coordinator re-polls the fleet
// registry for workers that joined or left mid-run.
const DefaultDiscoverInterval = 2 * time.Second

// Options configures a coordinated execution. Each range gets at most
// max(2×workers, 4) submissions: its first attempt plus retries and hedges.
type Options struct {
	// Workers are the locd base URLs (e.g. "http://127.0.0.1:8090") the
	// trial ranges are distributed across. At least one is required unless
	// Discover names a registry to find them in.
	Workers []string
	// Discover is a fleet-registry base URL (any locd serves one; see
	// internal/engine/fleet). When set, the registry's live members are
	// merged into Workers before execution, and the coordinator keeps
	// polling it during the run so workers that join mid-run are put to
	// work.
	Discover string
	// DiscoverInterval is the registry re-poll period; 0 means
	// DefaultDiscoverInterval.
	DiscoverInterval time.Duration
	// Reuse probes every worker's range-keyed result cache for this job
	// (POST /v1/cache/ranges) before scheduling. A cached full result is
	// returned as is; otherwise the surviving ranges — a dead predecessor's
	// finished sub-jobs, or ranges banked under a different full trial
	// count, which let a 4096-trial job over a cached 1024-trial run compute
	// only [1024, 4096) — are chained into a cover (engine.CoverRanges), and
	// only the gaps execute. Every adopted entry is geometry-checked
	// (engine.AdaptPartial), so the result stays byte-identical to a cold
	// run. The CLIs default it on.
	Reuse bool
	// Client is the HTTP client; nil means http.DefaultClient. Do not set
	// a global Client.Timeout — event streams live as long as their jobs;
	// stall detection is the liveness bound.
	Client *http.Client
	// StallTimeout is the per-attempt event-stream liveness bound: a range
	// whose stream delivers nothing for this long is hedged onto another
	// worker (the stalled attempt keeps running and may still win).
	// 0 means DefaultStallTimeout; negative disables stall detection.
	StallTimeout time.Duration
	// Progress, when non-nil, receives the job's live view, exactly as
	// run.Options.Progress does: the aggregate trials-completed counter
	// with the per-worker scoreboard as rows beneath it, repainted in place
	// on a terminal, or quarter-milestone lines with the scoreboard printed
	// once at completion elsewhere.
	Progress io.Writer
	// Warnings receives retry/hedge diagnostics; nil means os.Stderr.
	Warnings io.Writer
}

// WorkerScore is one worker's row in the fleet scoreboard.
type WorkerScore struct {
	// Worker is the locd base URL.
	Worker string
	// Ranges counts the ranges this worker won (its result was merged).
	Ranges int
	// Trials is the total trial count of those won ranges.
	Trials int
	// Retries counts attempts on this worker that failed and were retried
	// elsewhere.
	Retries int
	// Hedges counts attempts on this worker that stalled long enough for the
	// coordinator to hedge the range onto another worker.
	Hedges int
	// Steals counts the times this worker, idle, took unsubmitted work from
	// another worker's assignment.
	Steals int
	// ReusedTrials counts trials adopted from this worker's cache instead
	// of computed (Options.Reuse).
	ReusedTrials int
	// TrialsPerSec is Trials divided by the worker's cumulative winning-
	// attempt wall time; 0 until the worker wins a range.
	TrialsPerSec float64
}

// Stats summarizes one coordinated execution.
type Stats struct {
	// Trials is the job's full trial count.
	Trials int
	// Ranges is how many sub-ranges the job was split into.
	Ranges int
	// Retries counts extra submissions beyond one per range (failures
	// retried plus stalls hedged).
	Retries int
	// Hedges counts the subset of Retries caused by stall hedging: the
	// original attempt was still running (just silent) when a duplicate was
	// launched.
	Hedges int
	// DedupLosses counts duplicate attempts whose work was discarded because
	// a sibling attempt won the range first — the duplicated work hedging
	// paid for. Always 0 without hedges.
	DedupLosses int
	// Workers is how many distinct workers completed at least one range.
	Workers int
	// Steals counts unsubmitted-work transfers to idle workers. A steal
	// moves work that had not started anywhere, so it never duplicates a
	// trial.
	Steals int
	// Joined and Left count mid-run fleet membership changes observed from
	// the registry (with Discover set).
	Joined int
	Left   int
	// ReusedTrials and ReusedRanges describe work adopted from the fleet's
	// range-keyed caches instead of computed (Options.Reuse): a cached full
	// result counts as one range of every trial.
	ReusedTrials int
	ReusedRanges int
	// Scores is the per-worker scoreboard, in worker order.
	Scores []WorkerScore
}

// Execute runs one job across the worker fleet and returns its full result
// — exactly what a local run.ExecuteSpec of the same spec returns, with
// execution metadata describing the coordinated run (workers = distinct
// workers used, elapsed = coordination wall time).
func Execute(ctx context.Context, sp spec.JobSpec, opts Options) (*spec.Value, Stats, error) {
	start := time.Now()
	if sp.TrialRange != nil {
		return nil, Stats{}, fmt.Errorf("coord: spec %s already carries a trial range; the coordinator owns the split", sp.ID)
	}
	job, err := spec.Resolve(sp)
	if err != nil {
		return nil, Stats{}, err
	}
	if opts.Discover != "" {
		view, derr := fleet.Discover(ctx, opts.Client, opts.Discover)
		if derr != nil {
			// With a static fallback list the run can proceed; without one
			// the registry was the only source of workers.
			if len(opts.Workers) == 0 {
				return nil, Stats{}, fmt.Errorf("coord: discovering fleet: %w", derr)
			}
			warnTo(opts.Warnings, "coord: fleet discovery from %s failed (%v); using the static worker list\n",
				opts.Discover, derr)
		} else {
			opts.Workers = mergeWorkerURLs(opts.Workers, view.URLs())
		}
	}
	c, err := newCoordinator(job, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	ctx, jobSpan := obs.Start(ctx, "coord.job")
	if jobSpan != nil {
		jobSpan.SetAttr("job", sp.Hash()).SetAttr("scenario", job.Campaign.Scenario.Name).
			SetAttr("trials", job.TotalTrials).SetAttr("workers", len(c.workers))
	}
	defer jobSpan.End()
	val, err := c.run(ctx)
	c.finish(err == nil)
	if err != nil {
		return nil, c.stats(), err
	}
	val.ClearExecutionMeta()
	st := c.stats()
	val.SetExecutionMeta(st.Workers, time.Since(start).Seconds())
	return val, st, nil
}

// warnTo writes a diagnostic to w, defaulting to stderr like every other
// coordinator warning.
func warnTo(w io.Writer, format string, args ...any) {
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, format, args...)
}

// mergeWorkerURLs unions the static worker list with discovered members,
// normalized and deduplicated, static entries first.
func mergeWorkerURLs(static, discovered []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, w := range append(append([]string{}, static...), discovered...) {
		w = strings.TrimRight(strings.TrimSpace(w), "/")
		if w == "" || seen[w] {
			continue
		}
		seen[w] = true
		out = append(out, w)
	}
	return out
}

// ParseWorkers splits a comma-separated -workers flag value into base
// URLs, normalized and deduplicated like every worker list — the one parser
// every coordinator front-end shares.
func ParseWorkers(v string) []string {
	return mergeWorkerURLs(strings.Split(v, ","), nil)
}

type coordinator struct {
	job      spec.Resolved
	client   *http.Client
	stall    time.Duration
	maxTry   int
	minChunk int // smallest chunk the coordinator carves: one effective shard
	discover string
	poll     time.Duration
	reuseOn  bool
	warn     io.Writer
	prog     *progress.Renderer
	id, name string // progress line key (spec hash) and label

	mu      sync.Mutex
	workers []string
	// ranges/parts/rangeDone are parallel slices: the sub-ranges of the
	// trial space, each slot's winning result, and its progress counter.
	// A slot is appended per carved chunk (and per reused cache entry),
	// together tiling [0, TotalTrials) exactly.
	ranges    []spec.Range
	parts     []*spec.Value
	rangeDone []int
	// assign holds each worker's contiguous unsubmitted assignment; spare
	// holds assignment intervals beyond the worker count (resume gaps,
	// departed workers' leftovers). departed marks registry members that
	// left mid-run; only workers in discovered (registry-sourced or
	// registry-confirmed) are ever marked departed.
	assign     map[string]*spec.Range
	spare      []spec.Range
	departed   map[string]bool
	discovered map[string]bool
	// drainCh closes when the assignment pool empties for good — the
	// registry poller's cue that no joiner can be put to work anymore.
	drainCh chan struct{}

	dedupLosses  int
	joined       int
	left         int
	reusedRanges int
	// scores is the one source of every count with a per-worker tally;
	// stats sums the fleet totals from it.
	scores map[string]*workerTally

	// renderMu serializes progress rendering outside c.mu (see render).
	renderMu sync.Mutex
}

// workerTally is the mutable accumulator behind one WorkerScore row.
type workerTally struct {
	ranges  int
	trials  int
	retries int
	hedges  int
	steals  int
	reused  int           // trials adopted from this worker's cache
	busy    time.Duration // wall time of winning attempts
}

func newCoordinator(job spec.Resolved, opts Options) (*coordinator, error) {
	if len(opts.Workers) == 0 {
		if opts.Discover != "" {
			return nil, fmt.Errorf("coord: no workers registered at %s", opts.Discover)
		}
		return nil, fmt.Errorf("coord: no workers configured")
	}
	// Assignments are keyed by URL, so a worker listed twice must be one
	// worker, not two that overwrite each other's assignment.
	workers := mergeWorkerURLs(opts.Workers, nil)
	if len(workers) == 0 {
		return nil, fmt.Errorf("coord: empty worker URL")
	}
	stall := opts.StallTimeout
	switch {
	case stall == 0:
		stall = DefaultStallTimeout
	case stall < 0:
		stall = 0 // disabled
	}
	warn := opts.Warnings
	if warn == nil {
		warn = os.Stderr
	}
	client := opts.Client
	if client == nil {
		client = http.DefaultClient
	}
	poll := opts.DiscoverInterval
	if poll <= 0 {
		poll = DefaultDiscoverInterval
	}
	minChunk := job.ShardSize
	if minChunk < 1 {
		minChunk = 1
	}
	c := &coordinator{
		job:        job,
		workers:    workers,
		client:     client,
		stall:      stall,
		maxTry:     max(2*len(workers), 4),
		minChunk:   minChunk,
		discover:   opts.Discover,
		poll:       poll,
		reuseOn:    opts.Reuse,
		warn:       warn,
		prog:       progress.New(opts.Progress),
		id:         job.Spec.Hash(),
		name:       job.Campaign.Scenario.Name,
		assign:     make(map[string]*spec.Range),
		departed:   make(map[string]bool),
		discovered: make(map[string]bool),
		scores:     make(map[string]*workerTally),
		drainCh:    make(chan struct{}),
	}
	return c, nil
}

// rangeAt reads one range slot under the lock — the slice grows (and may
// reallocate) while other ranges run.
func (c *coordinator) rangeAt(i int) spec.Range {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ranges[i]
}

// tallyLocked returns the worker's score accumulator; the caller holds c.mu.
func (c *coordinator) tallyLocked(worker string) *workerTally {
	t, ok := c.scores[worker]
	if !ok {
		t = &workerTally{}
		c.scores[worker] = t
	}
	return t
}

// scoreboardLocked snapshots the per-worker fleet scoreboard in the
// coordinator's worker order (workers with no activity yet included,
// all-zero); the caller holds c.mu.
func (c *coordinator) scoreboardLocked() []WorkerScore {
	out := make([]WorkerScore, len(c.workers))
	for i, w := range c.workers {
		out[i] = WorkerScore{Worker: w}
		if t, ok := c.scores[w]; ok {
			out[i].Ranges = t.ranges
			out[i].Trials = t.trials
			out[i].Retries = t.retries
			out[i].Hedges = t.hedges
			out[i].Steals = t.steals
			out[i].ReusedTrials = t.reused
			if secs := t.busy.Seconds(); secs > 0 {
				out[i].TrialsPerSec = float64(t.trials) / secs
			}
		}
	}
	return out
}

// render pushes the job's live view — the aggregate trial counter, with the
// scoreboard as its rows — to the progress renderer. The caller must not
// hold c.mu: the renderer writes to the caller's writer, so only renderMu,
// which orders the snapshots and keeps the counter non-decreasing, is held
// across the write.
func (c *coordinator) render() {
	if c.prog == nil {
		return
	}
	c.renderMu.Lock()
	defer c.renderMu.Unlock()
	done, rows := c.snapshot()
	c.prog.Update(c.id, c.name, done, c.job.TotalTrials, rows)
}

// finish closes the job's progress view: a successful run shows its full
// count (a result adopted whole from a cache streams no progress), and the
// job retires from the renderer.
func (c *coordinator) finish(ok bool) {
	if c.prog == nil {
		return
	}
	c.renderMu.Lock()
	defer c.renderMu.Unlock()
	if ok {
		_, rows := c.snapshot()
		c.prog.Update(c.id, c.name, c.job.TotalTrials, c.job.TotalTrials, rows)
	}
	c.prog.Done(c.id)
}

// snapshot returns the trials completed across all ranges and the
// scoreboard's rows.
func (c *coordinator) snapshot() (done int, rows []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.rangeDone {
		done += d
	}
	return done, scoreRows(c.scoreboardLocked())
}

// scoreRows formats the scoreboard as the progress renderer's row block: a
// header and one row per worker.
func scoreRows(scores []WorkerScore) []string {
	const format = "%-36s %6v %7v %9v %8v %7v %7v %7v"
	rows := []string{fmt.Sprintf(format, "worker", "ranges", "trials", "trials/s", "retries", "hedges", "steals", "reused")}
	for _, ws := range scores {
		rows = append(rows, fmt.Sprintf(format, ws.Worker, ws.Ranges, ws.Trials,
			fmt.Sprintf("%.1f", ws.TrialsPerSec), ws.Retries, ws.Hedges, ws.Steals, ws.ReusedTrials))
	}
	return rows
}

func (c *coordinator) stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Trials:       c.job.TotalTrials,
		Ranges:       len(c.ranges),
		DedupLosses:  c.dedupLosses,
		Joined:       c.joined,
		Left:         c.left,
		ReusedRanges: c.reusedRanges,
		Scores:       c.scoreboardLocked(),
	}
	for _, t := range c.scores {
		st.Retries += t.retries + t.hedges
		st.Hedges += t.hedges
		st.Steals += t.steals
		st.ReusedTrials += t.reused
		if t.ranges > 0 || t.reused > 0 {
			st.Workers++
		}
	}
	return st
}

// subSpecFor builds the content-addressed sub-job for one range. A range
// covering the whole trial space submits the original spec whole, so the
// worker finalizes the result itself (this is also what makes single-trial
// campaigns — which cannot run partially — coordinate).
func (c *coordinator) subSpecFor(rg spec.Range) spec.JobSpec {
	sub := c.job.Spec
	if rg.Lo == 0 && rg.Hi == c.job.Trials {
		return sub
	}
	sub.TrialRange = &spec.Range{Lo: rg.Lo, Hi: rg.Hi}
	return sub
}

// merge assembles the completed range slots into the job's full value. A
// single whole-space slot is already finalized by its worker; any true
// partition goes through the engine's order-independent partial merge.
func (c *coordinator) merge() (*spec.Value, error) {
	c.mu.Lock()
	parts := append([]*spec.Value(nil), c.parts...)
	c.mu.Unlock()
	if len(parts) == 1 && parts[0].Partial == nil {
		return parts[0], nil
	}
	// Slots complete in carve order, not trial order; MergePartials sorts
	// them by range itself.
	partials := make([]*engine.Partial, len(parts))
	for i, p := range parts {
		partials[i] = p.Partial
	}
	rep, err := engine.MergePartials(partials)
	if err != nil {
		return nil, fmt.Errorf("coord: %s: %w", c.job.Spec.ID, err)
	}
	val, err := engine.FinalizeCampaign(c.job.Campaign, rep)
	if err != nil {
		return nil, err
	}
	return val, nil
}

// complete records a range result; the first completion wins (a hedged
// duplicate delivers identical bytes and is dropped as a dedup loss). The
// report says whether this completion won, and dur is the winning attempt's
// wall time, credited to the worker's throughput score.
func (c *coordinator) complete(i int, val *spec.Value, worker string, dur time.Duration) bool {
	c.mu.Lock()
	rg := c.ranges[i]
	won := c.parts[i] == nil
	if won {
		c.parts[i] = val
		c.rangeDone[i] = rg.Hi - rg.Lo
		t := c.tallyLocked(worker)
		t.ranges++
		t.trials += rg.Hi - rg.Lo
		t.busy += dur
	} else {
		c.dedupLosses++
	}
	c.mu.Unlock()
	if won {
		obsRanges.Inc()
		c.render()
	} else {
		obsDedupLoss.Inc()
	}
	return won
}

// addDedupLosses records n duplicate attempts abandoned because a sibling
// won the range first.
func (c *coordinator) addDedupLosses(n int) {
	c.mu.Lock()
	c.dedupLosses += n
	c.mu.Unlock()
	obsDedupLoss.Add(int64(n))
}

// progress records a range's trial counter from its event stream.
func (c *coordinator) progress(i, done int) {
	c.mu.Lock()
	advanced := c.parts[i] == nil && done > c.rangeDone[i]
	if advanced {
		c.rangeDone[i] = done
	}
	c.mu.Unlock()
	if advanced {
		c.render()
	}
}

// runRange drives one range to completion: submit to a worker, watch its
// event stream, and on failure retry — or on stall hedge, leaving the slow
// attempt racing — on the least-tried surviving worker, up to the attempt
// budget. preferred names the worker whose assignment the chunk was carved
// from; it gets the first attempt unless it departed.
func (c *coordinator) runRange(ctx context.Context, i int, preferred string) error {
	rg := c.rangeAt(i)
	ctx, rangeSpan := obs.Start(ctx, "coord.range")
	if rangeSpan != nil {
		rangeSpan.SetAttr("range", i).SetAttr("lo", rg.Lo).SetAttr("hi", rg.Hi)
	}
	defer rangeSpan.End()
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sub := c.subSpecFor(rg)

	type result struct {
		val    *spec.Value
		trace  []obs.SpanRecord
		err    error
		worker string
		dur    time.Duration
	}
	results := make(chan result)
	stalls := make(chan string)
	tried := make(map[string]int)
	attempts, pending := 0, 0

	launch := func() {
		worker := ""
		if attempts == 0 && !c.hasDeparted(preferred) {
			worker = preferred
		} else {
			worker = c.pickWorker(i, attempts, tried)
		}
		attempt := attempts
		attempts++
		tried[worker]++
		pending++
		go func() {
			_, span := obs.Start(rctx, "coord.attempt")
			if span != nil {
				span.SetAttr("worker", worker).SetAttr("attempt", attempt)
			}
			start := time.Now()
			val, trace, err := c.runAttempt(rctx, worker, sub, i, stalls)
			dur := time.Since(start)
			if span != nil {
				if err != nil {
					span.SetAttr("outcome", "error").SetAttr("error", err.Error())
				} else {
					span.SetAttr("outcome", "ok")
				}
			}
			span.End()
			select {
			case results <- result{val, trace, err, worker, dur}:
			case <-rctx.Done():
			}
		}()
	}
	launch()

	var lastErr error
	for {
		var timeout <-chan time.Time
		if attempts >= c.maxTry && pending > 0 && c.stall > 0 {
			// Out of attempts: give the in-flight stragglers one more stall
			// window, then give up on the range.
			t := time.NewTimer(c.stall)
			defer t.Stop()
			timeout = t.C
		}
		if pending == 0 {
			return fmt.Errorf("coord: %s range [%d, %d): all %d attempts failed: %w",
				c.job.Spec.ID, rg.Lo, rg.Hi, attempts, lastErr)
		}
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				if c.complete(i, r.val, r.worker, r.dur) {
					// Graft the worker's execution timeline (run.job and the
					// engine spans beneath it) under this range's span.
					if tr := obs.FromContext(ctx); tr != nil && len(r.trace) > 0 {
						tr.Import(rangeSpan, r.trace)
					}
				}
				if pending > 0 {
					// The attempts still racing are now pure duplicates; their
					// work is discarded when rctx is cancelled below.
					c.addDedupLosses(pending)
				}
				return nil
			}
			if errors.Is(r.err, errPermanent) {
				// The sub-job itself failed. Its result is a deterministic
				// function of the spec, so every other worker would compute
				// the same failure — retrying only multiplies the waste.
				return fmt.Errorf("coord: %s range [%d, %d): %w", c.job.Spec.ID, rg.Lo, rg.Hi, r.err)
			}
			lastErr = r.err
			c.mu.Lock()
			c.tallyLocked(r.worker).retries++
			c.mu.Unlock()
			obsRetries.Inc()
			c.render()
			if attempts < c.maxTry {
				fmt.Fprintf(c.warn, "coord: %s range [%d, %d): worker %s failed (%v); retrying\n",
					c.job.Spec.ID, rg.Lo, rg.Hi, r.worker, r.err)
				launch()
			} else if pending == 0 {
				return fmt.Errorf("coord: %s range [%d, %d): all %d attempts failed: %w",
					c.job.Spec.ID, rg.Lo, rg.Hi, attempts, lastErr)
			}
		case w := <-stalls:
			if attempts < c.maxTry {
				c.mu.Lock()
				c.tallyLocked(w).hedges++
				c.mu.Unlock()
				obsRetries.Inc()
				obsHedges.Inc()
				c.render()
				fmt.Fprintf(c.warn, "coord: %s range [%d, %d): worker %s stalled; hedging on another worker\n",
					c.job.Spec.ID, rg.Lo, rg.Hi, w)
				launch()
			}
		case <-timeout:
			return fmt.Errorf("coord: %s range [%d, %d): gave up after %d attempts: %w",
				c.job.Spec.ID, rg.Lo, rg.Hi, attempts, orStalled(lastErr))
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func orStalled(err error) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("every attempt stalled")
}

// pickWorker spreads attempts: least-tried first, rotated by range index so
// the initial assignment round-robins the fleet. Departed workers are
// skipped unless every worker has departed (then any target beats none).
func (c *coordinator) pickWorker(rangeIdx, attempt int, tried map[string]int) string {
	c.mu.Lock()
	workers := append([]string(nil), c.workers...)
	live := workers[:0:0]
	for _, w := range workers {
		if !c.departed[w] {
			live = append(live, w)
		}
	}
	c.mu.Unlock()
	if len(live) > 0 {
		workers = live
	}
	best := ""
	bestTries := 0
	for off := 0; off < len(workers); off++ {
		w := workers[(rangeIdx+attempt+off)%len(workers)]
		if best == "" || tried[w] < bestTries {
			best, bestTries = w, tried[w]
		}
	}
	return best
}

// hasDeparted reports whether the registry has declared the worker gone.
func (c *coordinator) hasDeparted(worker string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.departed[worker]
}

// errPermanent marks a terminal job failure reported by a worker: the
// sub-job's outcome is a deterministic function of its spec, so the same
// failure would reproduce on every worker and the range must not retry.
// Transport, HTTP, and stall failures stay retryable.
var errPermanent = errors.New("deterministic job failure")

// wireJob is a job summary of the locd API (the subset the coordinator
// consumes). An events-stream line decodes into it too: its trial counter in
// Done and, on the terminal line only, its Status.
type wireJob struct {
	ID      string      `json:"id"`
	Status  string      `json:"status"`
	Done    int         `json:"done"`
	Error   string      `json:"error"`
	Skipped bool        `json:"skipped"`
	Result  *spec.Value `json:"result"`
	// Trace is the worker-side span subtree for the job (run.job plus the
	// engine spans beneath it), grafted under the range's span on success.
	Trace []obs.SpanRecord `json:"trace"`
}

// runAttempt submits the sub-job to one worker and follows it to a result
// (plus the worker's span subtree for the job, when it recorded one). Any
// transport error, HTTP error, or job failure is returned for the controller
// to retry elsewhere; a stall is signaled on stalls while the attempt keeps
// waiting (hedging).
func (c *coordinator) runAttempt(ctx context.Context, worker string, sub spec.JobSpec, rangeIdx int, stalls chan<- string) (*spec.Value, []obs.SpanRecord, error) {
	js, err := c.submit(ctx, worker, sub)
	for err == nil {
		switch js.Status {
		case "done":
			return c.takeResult(ctx, worker, js, sub.TrialRange != nil)
		case "failed":
			if !js.Skipped {
				return nil, nil, fmt.Errorf("%w on %s: %s", errPermanent, worker, js.Error)
			}
			// A batch sibling's failure; resubmission retries it fresh.
			js, err = c.submit(ctx, worker, sub)
		case "running":
			id := js.ID
			ev, serr := c.watchEvents(ctx, worker, id, rangeIdx, stalls)
			if serr == nil {
				js = ev // the terminal line
				continue
			}
			// Stream broke without a terminal line: poll once to tell a
			// finished job from a dead worker before giving the attempt up.
			if js, err = c.getJob(ctx, worker, id); err != nil {
				err = fmt.Errorf("%v (poll: %v)", serr, err)
			} else if js.Status == "running" {
				err = serr
			}
		default:
			err = fmt.Errorf("worker %s: unexpected job status %q", worker, js.Status)
		}
	}
	return nil, nil, err
}

// takeResult validates the finished job's result shape for this execution
// (a partial for range sub-jobs, a finalized value otherwise) and carries
// the worker's recorded span subtree along with it.
func (c *coordinator) takeResult(ctx context.Context, worker string, js *wireJob, wantPartial bool) (*spec.Value, []obs.SpanRecord, error) {
	if js.Result == nil {
		// A done job answered without its result (a submit-time summary or a
		// terminal event line); fetch the full record.
		full, err := c.getJob(ctx, worker, js.ID)
		if err != nil {
			return nil, nil, err
		}
		js = full
		if js.Result == nil {
			return nil, nil, fmt.Errorf("worker %s: done job %s carries no result", worker, js.ID)
		}
	}
	if wantPartial && js.Result.Partial == nil {
		return nil, nil, fmt.Errorf("worker %s: range sub-job %s returned no partial aggregate", worker, js.ID)
	}
	return js.Result, js.Trace, nil
}

// maxResponse bounds the body of every worker response the coordinator
// decodes.
const maxResponse = 64 << 20

// call makes one stall-bounded request to a worker — a POST of body, or a
// GET when body is nil — and decodes the JSON answer into out. A status
// other than want is an error carrying the start of the response body. The
// bound matters: a worker that accepts connections but never answers must
// not hold the caller forever.
func (c *coordinator) call(ctx context.Context, url string, body []byte, want int, out any) error {
	tctx, cancel := c.boundedCtx(ctx)
	defer cancel()
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(tctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		head, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(head)))
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxResponse)).Decode(out)
}

// boundedCtx derives a stall-bounded context for one HTTP round-trip.
func (c *coordinator) boundedCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.stall > 0 {
		return context.WithTimeout(ctx, c.stall)
	}
	return context.WithCancel(ctx)
}

// submit POSTs the sub-job and returns its (possibly already finished)
// summary.
func (c *coordinator) submit(ctx context.Context, worker string, sub spec.JobSpec) (*wireJob, error) {
	var out struct {
		Jobs []*wireJob `json:"jobs"`
	}
	if err := c.call(ctx, worker+"/v1/jobs", sub.Canonical(), http.StatusAccepted, &out); err != nil {
		return nil, fmt.Errorf("submit to %s: %w", worker, err)
	}
	if len(out.Jobs) != 1 {
		return nil, fmt.Errorf("submit to %s: malformed response (%d jobs)", worker, len(out.Jobs))
	}
	return out.Jobs[0], nil
}

// getJob fetches one job's full record (including its result when done).
func (c *coordinator) getJob(ctx context.Context, worker, id string) (*wireJob, error) {
	var js wireJob
	if err := c.call(ctx, worker+"/v1/jobs/"+id, nil, http.StatusOK, &js); err != nil {
		return nil, fmt.Errorf("poll %s: %w", worker, err)
	}
	return &js, nil
}

// watchEvents follows the job's NDJSON stream until a terminal status line
// (any status but running, so the caller's status loop always advances),
// feeding progress counters to the coordinator. Silence beyond the stall
// timeout signals stalls once (the stream stays open — the attempt may
// still win the hedge race). A stream that ends without a terminal line is
// an error (disconnect).
func (c *coordinator) watchEvents(ctx context.Context, worker, id string, rangeIdx int, stalls chan<- string) (*wireJob, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}

	type line struct {
		ev  wireJob
		err error
	}
	lines := make(chan line)
	// The HTTP round-trip runs inside the watched goroutine too: a worker
	// that hangs or drags the request itself (before any stream bytes) must
	// trip the stall detector exactly like mid-stream silence.
	go func() {
		send := func(l line) bool {
			select {
			case lines <- l:
				return true
			case <-ctx.Done():
				return false
			}
		}
		resp, err := c.client.Do(req)
		if err != nil {
			send(line{err: fmt.Errorf("events %s: %w", worker, err)})
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			send(line{err: fmt.Errorf("events %s: status %d", worker, resp.StatusCode)})
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		for sc.Scan() {
			ev := wireJob{ID: id}
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				send(line{err: fmt.Errorf("events %s: bad line: %w", worker, err)})
				return
			}
			if !send(line{ev: ev}) {
				return
			}
		}
		err = sc.Err()
		if err == nil {
			err = fmt.Errorf("events %s: stream ended without a terminal status", worker)
		}
		send(line{err: err})
	}()

	var stallC <-chan time.Time
	var stallTimer *time.Timer
	if c.stall > 0 {
		stallTimer = time.NewTimer(c.stall)
		defer stallTimer.Stop()
		stallC = stallTimer.C
	}
	stalled := false
	for {
		select {
		case l := <-lines:
			if l.err != nil {
				return nil, l.err
			}
			if stallTimer != nil && !stalled {
				if !stallTimer.Stop() {
					<-stallTimer.C
				}
				stallTimer.Reset(c.stall)
			}
			if l.ev.Status != "" && l.ev.Status != "running" {
				return &l.ev, nil
			}
			c.progress(rangeIdx, l.ev.Done)
		case <-stallC:
			// Signal once; keep following the stream in case it recovers or
			// simply finishes slowly.
			stalled = true
			select {
			case stalls <- worker:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
