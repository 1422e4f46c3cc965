// Package run is the unified campaign runner shared by cmd/experiments,
// cmd/scenarios, and the locd service: one place for the common CLI flags,
// the on-disk result cache, streaming trial progress, and campaign
// execution.
//
// The unit of work is a declarative job description (spec.JobSpec): every
// caller — CLI flags, spec files, HTTP submissions — compiles down to specs,
// resolves them onto the registries (spec.Resolve), and executes them here.
// A Session owns the execution environment (worker count, cache, progress
// sinks); the spec owns everything the result is a function of (kind, job,
// seed, trials, shard size), which — plus the binary fingerprint — is the
// cache key.
//
// Suites of independent jobs run through ExecuteAll, which overlaps up to
// Options.SuiteParallel campaigns on top of the engine's trial-level
// parallelism, dispatching the largest jobs first so the critical path is as
// short as the overlap allows. Every campaign draws its shard slots from the
// process-wide engine.SharedBudget, so overlapped campaigns share GOMAXPROCS
// instead of multiplying worker pools — and because shard partitions and
// merges are scheduling-independent, results are byte-identical at every
// overlap factor and dispatch order.
package run

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/cache"
	"resilientloc/internal/engine/params"
	"resilientloc/internal/engine/progress"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// Run-layer telemetry: job counters, queue/in-flight gauges (the health
// endpoint's backpressure signals), and per-job wall-time. Spans (run.queued,
// run.job) record only when the caller's context carries a tracer.
var (
	obsJobs       = obs.Default().Counter("run_jobs_total")
	obsJobsCached = obs.Default().Counter("run_jobs_cached_total")
	obsJobsFailed = obs.Default().Counter("run_jobs_failed_total")
	obsQueued     = obs.Default().Gauge("run_jobs_queued")
	obsInflight   = obs.Default().Gauge("run_jobs_inflight")
	obsJobSec     = obs.Default().Histogram("run_job_seconds", obs.DefLatencyBuckets)
)

// Opportunistic cache-GC policy: at most one sweep per hour per directory,
// evicting entries untouched for 30 days (long-dead binary fingerprints)
// or, oldest first, beyond a 512 MiB total.
const (
	gcInterval = time.Hour
	gcMaxAge   = 30 * 24 * time.Hour
	gcMaxBytes = 512 << 20
)

// Options carries the execution environment common to every campaign
// front-end. Job-level parameters (seed, trial count, shard size) live in
// each spec.JobSpec; the Seed/Trials/ShardSize fields here are only the
// storage the flag-based CLIs compile into specs.
type Options struct {
	// Trials is the -trials flag value a CLI copies into its flag-built
	// specs (0 = each scenario's default). Spec files carry their own.
	Trials int
	// Workers is the engine worker-pool size (0 = GOMAXPROCS). Regardless
	// of its value, concurrent shard execution is bounded by the shared
	// worker budget (engine.SharedBudget), sized to GOMAXPROCS.
	Workers int
	// Seed is the -seed flag value a CLI copies into its flag-built specs.
	Seed int64
	// ShardSize is the -shard-size flag value a CLI copies into its
	// flag-built specs (0 = engine default).
	ShardSize int
	// SuiteParallel is how many independent campaigns ExecuteAll overlaps:
	// 1 (the default when registered as a flag) runs them sequentially,
	// 0 means GOMAXPROCS. Per-campaign results are identical at any value.
	SuiteParallel int
	// CacheDir is the result-cache directory; empty selects DefaultCacheDir.
	CacheDir string
	// NoCache disables the result cache entirely.
	NoCache bool
	// CacheGC controls the opportunistic cache sweep NewSession runs:
	// "" or "on" enables it, "off" disables it.
	CacheGC string
	// Progress, when non-nil, receives streaming trials-completed updates
	// for each campaign as its shards finish: an in-place status block on a
	// terminal, newline-delimited milestone lines elsewhere.
	Progress io.Writer
	// OnProgress, when non-nil, receives the same streaming trial counters
	// keyed by job ID (spec.JobSpec.Hash) instead of rendered text — the
	// hook the locd event streams are wired to. Calls are serialized per
	// session.
	OnProgress func(jobID string, done, total int)
	// Warnings receives non-fatal diagnostics (e.g. a cache entry that no
	// longer decodes); nil means os.Stderr.
	Warnings io.Writer
	// Params collects repeatable -param name=value flags; Specs copies the
	// map into every flag-built spec, selecting one operating point of a
	// parameterized factory or experiment. Spec files carry their own.
	Params params.FlagValue
}

// RegisterCommon registers the flags shared by every campaign CLI:
// -parallel, -seed, -cache, -no-cache, -cache-gc. Flags whose
// applicability varies (like -trials) have their own Register helpers.
func (o *Options) RegisterCommon(fs *flag.FlagSet) {
	fs.IntVar(&o.Workers, "parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.Int64Var(&o.Seed, "seed", 1, "base random seed (runs are deterministic per seed)")
	fs.StringVar(&o.CacheDir, "cache", "", "result cache directory (default: the per-user cache dir)")
	fs.BoolVar(&o.NoCache, "no-cache", false, "disable the on-disk result cache")
	fs.StringVar(&o.CacheGC, "cache-gc", "on", "opportunistic cache garbage collection (on|off)")
}

// RegisterTrials registers the -trials override. Scenario CLIs expose it;
// the figure CLI does not, because a figure's trial structure is part of its
// definition.
func (o *Options) RegisterTrials(fs *flag.FlagSet) {
	fs.IntVar(&o.Trials, "trials", 0, "override each scenario's default trial count")
}

// RegisterShardSize registers the -shard-size override. It pairs with
// RegisterTrials on scenario CLIs; figure campaigns pin their own shard
// partitions, so the figure CLI registers neither.
func (o *Options) RegisterShardSize(fs *flag.FlagSet) {
	fs.IntVar(&o.ShardSize, "shard-size", 0, "trials per aggregation shard (0 = engine default)")
}

// RegisterParams registers the repeatable -param flag selecting one
// operating point of a parameterized scenario factory or experiment.
func (o *Options) RegisterParams(fs *flag.FlagSet) {
	fs.Var(&o.Params, "param",
		"scenario parameter as name=value (repeatable); see -list for each factory's schema")
}

// RegisterSuiteParallel registers the -suite-parallel overlap factor for
// CLIs that run whole suites.
func (o *Options) RegisterSuiteParallel(fs *flag.FlagSet) {
	fs.IntVar(&o.SuiteParallel, "suite-parallel", 1,
		"independent campaigns to overlap in suite runs (0 = GOMAXPROCS, 1 = sequential; results are identical at any value)")
}

// Specs compiles a list of job IDs into flag-parameterized specs of one
// kind: the bridge from a CLI's selection flags to the spec-driven
// execution path.
func (o Options) Specs(kind string, ids []string) []spec.JobSpec {
	specs := make([]spec.JobSpec, len(ids))
	for i, id := range ids {
		specs[i] = spec.JobSpec{Kind: kind, ID: id, Seed: o.Seed}
		if kind == spec.KindScenario {
			specs[i].Trials = o.Trials
			specs[i].ShardSize = o.ShardSize
		}
		if len(o.Params.M) > 0 {
			// Each spec gets its own copy: shared mutable state across a
			// batch would let one job's resolution alias another's identity.
			specs[i].Params = o.Params.M.Clone()
		}
	}
	return specs
}

// DefaultCacheDir returns the per-user cache directory, or "" when the
// platform provides none (caching is then disabled rather than failing).
func DefaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "resilientloc")
}

// Session executes resolved jobs under one set of Options, tracking cache
// use and the number of trials actually computed. A session is safe for
// concurrent ExecuteSpec/ExecuteAll calls; ExecuteAll is its suite
// scheduler.
type Session struct {
	opts  Options
	cache *cache.Cache
	warn  io.Writer
	prog  *progress.Renderer

	mu             sync.Mutex
	trialsExecuted int

	// keyLocks serializes cache Get→compute→Put per cache key, so a suite
	// that schedules the same campaign twice computes it once and hands the
	// second execution a cache hit instead of racing on the entry. An entry
	// lives only while some caller holds or waits on it.
	keyMu    sync.Mutex
	keyLocks map[string]*keyLock

	// opMu serializes Options.OnProgress invocations across concurrently
	// running campaigns, making the hook's documented contract true.
	opMu sync.Mutex
}

// NewSession validates the options and opens the result cache (unless
// disabled), sweeping old cache entries opportunistically (unless
// CacheGC is "off"). An unusable default cache directory degrades to
// cache-off; an explicitly requested directory that cannot be opened is an
// error.
func NewSession(opts Options) (*Session, error) {
	if opts.SuiteParallel < 0 {
		return nil, fmt.Errorf("run: negative suite parallelism %d", opts.SuiteParallel)
	}
	gc := true
	switch opts.CacheGC {
	case "", "on":
	case "off":
		gc = false
	default:
		return nil, fmt.Errorf("run: invalid -cache-gc value %q (want on or off)", opts.CacheGC)
	}
	if opts.Warnings == nil {
		opts.Warnings = os.Stderr
	}
	s := &Session{
		opts:     opts,
		warn:     opts.Warnings,
		prog:     progress.New(opts.Progress),
		keyLocks: make(map[string]*keyLock),
	}
	// Validate the flag-level engine configuration eagerly so errors surface
	// before any campaign runs.
	cfg := engine.Config{Workers: opts.Workers, Trials: opts.Trials, Seed: opts.Seed, ShardSize: opts.ShardSize}
	if _, err := engine.NewRunner(cfg); err != nil {
		return nil, err
	}
	if opts.NoCache {
		return s, nil
	}
	dir := opts.CacheDir
	explicit := dir != ""
	if !explicit {
		dir = DefaultCacheDir()
		if dir == "" {
			return s, nil
		}
	}
	c, err := cache.Open(dir)
	if err != nil {
		if explicit {
			return nil, err
		}
		return s, nil
	}
	s.cache = c
	if gc {
		// Best-effort: a failed sweep must not block the run.
		_, _, _ = c.MaybeGC(gcInterval, gcMaxAge, gcMaxBytes)
	}
	return s, nil
}

// TrialsExecuted reports how many trials this session actually computed;
// cache hits contribute zero.
func (s *Session) TrialsExecuted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trialsExecuted
}

// CacheDir returns the directory of the session's cache, or "" when caching
// is off.
func (s *Session) CacheDir() string {
	if s.cache == nil {
		return ""
	}
	return s.cache.Dir()
}

// CacheEntry returns the raw stored cache entry addressed by a key hash, as
// served by locd's /v1/cache endpoint. The boolean reports existence; a
// session without a cache never has entries.
func (s *Session) CacheEntry(hash string) ([]byte, bool, error) {
	if s.cache == nil {
		return nil, false, nil
	}
	return s.cache.EntryByHash(hash)
}

// jobCacheKey builds the cache key of job's full run — the identity that
// every range-keyed partial of the job shares once RangeLo/RangeHi (and
// the partial retention flag) are stamped on top. One function so
// execution and the crash-resume probe can never drift apart on what a
// job's content address is.
func jobCacheKey(job spec.Resolved, trials, shardSize int) cache.Key {
	key := cache.Key{
		Kind:        job.Spec.Kind,
		Scenario:    job.Campaign.Scenario.Name,
		Seed:        job.Spec.Seed,
		Trials:      trials,
		ShardSize:   shardSize,
		Fingerprint: cache.Fingerprint(),
	}
	if len(job.Params) > 0 {
		key.Params = string(job.Params.Canonical())
	}
	return key
}

// RangeProbe is the crash-resume probe result for one job: the content
// address of the job's full-run cache entry when one exists, plus every
// cached partial-range entry — all keyed with this process's own binary
// fingerprint, which is exactly why the probe runs on the worker (over
// locd's POST /v1/cache/ranges) rather than on the coordinator, whose
// binary hashes differently.
type RangeProbe struct {
	// Trials is the job's effective full trial count [0, Trials) — the
	// space the coordinator must cover.
	Trials int `json:"trials"`
	// Full is the hash of the full-run entry, empty when only partials (or
	// nothing) are cached.
	Full string `json:"full,omitempty"`
	// Ranges are the cached partial executions, sorted by Lo then
	// wider-first.
	Ranges []cache.RangeEntry `json:"ranges,omitempty"`
}

// RangeEntries probes the session's cache for results a previous run of sp
// (or its sub-ranges) already banked. The spec must describe the full job:
// a spec carrying its own trial range has nothing to resume. A session
// without a cache answers with no entries rather than an error.
func (s *Session) RangeEntries(sp spec.JobSpec) (RangeProbe, error) {
	if sp.TrialRange != nil {
		return RangeProbe{}, fmt.Errorf("run: range probe wants the full job, not sub-range [%d, %d)",
			sp.TrialRange.Lo, sp.TrialRange.Hi)
	}
	job, err := spec.Resolve(sp)
	if err != nil {
		return RangeProbe{}, err
	}
	// Re-derive the effective trials/shard size exactly as execution does —
	// through the session's runner config — so probe keys and execution keys
	// are the same bytes by construction.
	runner, err := engine.NewRunner(s.runnerConfig(job))
	if err != nil {
		return RangeProbe{}, err
	}
	trials, shardSize := engine.CampaignConfig(runner, job.Campaign)
	probe := RangeProbe{Trials: trials}
	if s.cache == nil {
		return probe, nil
	}
	base := jobCacheKey(job, trials, shardSize)
	hash := base.Hash()
	if _, ok, err := s.cache.EntryByHash(hash); err == nil && ok {
		probe.Full = hash
	}
	ranges, err := s.cache.RangeEntries(base)
	if err != nil {
		return probe, err
	}
	probe.Ranges = ranges
	return probe, nil
}

// Info describes how one job execution was satisfied.
type Info struct {
	// Cached reports that the result came from the cache with no trial
	// computation — a full-key hit, or a plan whose cached ranges covered
	// the whole trial space.
	Cached bool
	// Trials is the effective trial count of the (possibly skipped) run.
	Trials int
	// ReusedTrials counts trials the prefix-reuse planner satisfied from
	// cached range entries instead of recomputing. Zero for full-key cache
	// hits (nothing was planned) and for cold runs.
	ReusedTrials int
	// Elapsed is the wall time of this execution, including cache lookup.
	Elapsed time.Duration
	// CacheKey is the content address the result is (or would be) cached
	// under — fetchable via locd's /v1/cache/{key}. Empty when the session
	// runs without a cache.
	CacheKey string
}

// keyLock is one cache key's mutex plus the number of callers holding or
// waiting on it (guarded by Session.keyMu).
type keyLock struct {
	mu      sync.Mutex
	holders int
}

// lockKey serializes cache access per key hash; the returned function
// releases the lock, dropping the key's entry once no caller needs it.
func (s *Session) lockKey(hash string) func() {
	s.keyMu.Lock()
	l, ok := s.keyLocks[hash]
	if !ok {
		l = &keyLock{}
		s.keyLocks[hash] = l
	}
	l.holders++
	s.keyMu.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		s.keyMu.Lock()
		if l.holders--; l.holders == 0 {
			delete(s.keyLocks, hash)
		}
		s.keyMu.Unlock()
	}
}

// progressCallback fans one job's trial counters out to the rendered
// progress sink (keyed by job id, labeled by campaign name) and the
// job-keyed OnProgress hook.
func (s *Session) progressCallback(name, jobID string) func(done, total int) {
	cb := s.prog.Callback(jobID, name)
	op := s.opts.OnProgress
	if op == nil {
		return cb
	}
	return func(done, total int) {
		if cb != nil {
			cb(done, total)
		}
		s.opMu.Lock()
		op(jobID, done, total)
		s.opMu.Unlock()
	}
}

// ExecuteSpec resolves and executes one job description through the
// session: a cache hit returns the stored result with zero trial
// computation, and a miss runs the campaign on the engine and stores the
// result. Execution metadata (worker count, wall time) is normalized out of
// cached values and stamped with this invocation's actual values, so a hit
// reports zero workers and its own lookup time, never the populating run's.
// Safe for concurrent calls on one session.
func ExecuteSpec(s *Session, sp spec.JobSpec) (*spec.Value, Info, error) {
	return ExecuteSpecContext(context.Background(), s, sp)
}

// ExecuteSpecContext is ExecuteSpec with an observability context: the job's
// run.job span — and the engine spans beneath it — land in the context's
// tracer, if any. The context never cancels execution.
func ExecuteSpecContext(ctx context.Context, s *Session, sp spec.JobSpec) (*spec.Value, Info, error) {
	if sp.AutoTrials != nil {
		// An auto spec is a driving recipe, not one job: peel the rule off
		// and run the CI-driven round sequence (spec.Resolve rejects auto
		// specs precisely so no other path treats them as a single job).
		return executeAuto(ctx, s, sp)
	}
	job, err := spec.Resolve(sp)
	if err != nil {
		return nil, Info{}, err
	}
	return executeJob(ctx, s, job.Spec.Hash(), job)
}

// executeJob executes one already-resolved job under the run-layer job
// counters and the in-flight gauge; see ExecuteSpec. id is the job's wire
// address, job.Spec.Hash(), derived once by the caller.
func executeJob(ctx context.Context, s *Session, id string, job spec.Resolved) (*spec.Value, Info, error) {
	obsInflight.Add(1)
	defer obsInflight.Add(-1)
	res, info, err := executeResolved(ctx, s, id, job)
	countJob(info, err)
	return res, info, err
}

// countJob books one finished job on the run-layer job counters.
func countJob(info Info, err error) {
	obsJobs.Inc()
	obsJobSec.Observe(info.Elapsed.Seconds())
	switch {
	case err != nil:
		obsJobsFailed.Inc()
	case info.Cached:
		obsJobsCached.Inc()
	}
}

// ServeCached answers job from an entry already in the session's cache, by
// the same hit decision execution starts with (cachedHit), but without
// taking the job's cache-key lock: execution holds that lock across a
// whole computation, and a caller answering a request must never wait on
// some other job's trials. A lock-free read is safe because Put is an
// atomic rename. ok is false when the job must be executed instead, and a
// miss books nothing — execution's own lookup books the job's one cache
// Get. A served hit leaves exactly what an executed hit leaves: one cache
// Get and hit, the run-layer job counters, and a run.job span marked
// cached in ctx's tracer. id is the job's wire address, job.Spec.Hash(),
// which a caller answering a request has already derived.
func ServeCached(ctx context.Context, s *Session, id string, job spec.Resolved) (Outcome, bool) {
	if s.cache == nil {
		return Outcome{}, false
	}
	start := time.Now()
	// The span is ended only on a hit: a tracer records spans when they
	// end, so a miss leaves no run.job behind for execution to duplicate.
	_, jobSpan := startJobSpan(ctx, id, job)
	runner, err := engine.NewRunner(s.runnerConfig(job))
	if err != nil {
		return Outcome{}, false
	}
	addr, err := s.address(job, runner)
	if err != nil || addr.keyHash == "" {
		return Outcome{}, false
	}
	res, info, ok := s.cachedHit(addr, jobSpan, start, false)
	if !ok {
		return Outcome{}, false
	}
	jobSpan.End()
	countJob(info, nil)
	return Outcome{Spec: job.Spec, Result: res, Info: info}, true
}

// runnerConfig is the engine configuration of job under the session's
// options, without progress reporting or a budget.
func (s *Session) runnerConfig(job spec.Resolved) engine.Config {
	return engine.Config{
		Workers:   s.opts.Workers,
		Trials:    job.Spec.Trials,
		Seed:      job.Spec.Seed,
		ShardSize: job.Spec.ShardSize,
	}
}

// startJobSpan starts the run.job span of job id in ctx's tracer.
func startJobSpan(ctx context.Context, id string, job spec.Resolved) (context.Context, *obs.Span) {
	ctx, span := obs.Start(ctx, "run.job")
	if span != nil {
		span.SetAttr("job", id).SetAttr("scenario", job.Campaign.Scenario.Name).SetAttr("kind", job.Spec.Kind)
	}
	return ctx, span
}

// jobAddress is what execution derives from a job before it touches the
// cache: the effective trial count and shard size, the proper trial
// sub-range (nil for a full run), and the job's cache key.
type jobAddress struct {
	trials, shardSize int
	runTrials         int         // trials this execution covers: the range's, or all
	rng               *spec.Range // nil for a full run
	key               cache.Key
	keyHash           string // "" when the job bypasses the cache
}

// address derives job's jobAddress under runner's configuration.
func (s *Session) address(job spec.Resolved, runner *engine.Runner) (jobAddress, error) {
	c := job.Campaign
	var a jobAddress
	a.trials, a.shardSize = engine.CampaignConfig(runner, c)
	a.runTrials = a.trials
	// A proper trial sub-range executes partially: the result is the
	// range's serialized shard aggregates (spec.Value.Partial), not a
	// finalized figure or report — finalizing needs the full merged run,
	// which only the coordinator holds.
	if r := job.Spec.TrialRange; r != nil && !(r.Lo == 0 && r.Hi == a.trials) {
		if r.Hi > a.trials {
			return jobAddress{}, fmt.Errorf("run: %s: trial range [%d, %d) exceeds the job's %d trials",
				c.Scenario.Name, r.Lo, r.Hi, a.trials)
		}
		a.rng = r
		a.runTrials = r.Hi - r.Lo
	}
	if s.cache == nil {
		return a, nil
	}
	// The key (and the whole-binary fingerprint it embeds) is only worth
	// computing when a cache exists to consult.
	a.key = jobCacheKey(job, a.trials, a.shardSize)
	if a.rng != nil {
		a.key.RangeLo, a.key.RangeHi = a.rng.Lo, a.rng.Hi
	}
	a.keyHash = a.key.Hash()
	return a, nil
}

// cachedHit is the one cache-hit decision, shared by execution and
// ServeCached: read the job's entry and serve it when its shape matches
// the job's — a finalized result for a full run, a partial for a trial
// range; an entry of the other shape is recomputed and overwritten. A
// served hit is stamped with zero workers and the lookup's own elapsed
// time since start, never the populating run's: one reading, so the
// result's report and the job's Info agree. With book set (execution,
// under the key's lock) every read books one cache Get and an undecodable
// entry is reported; without it (ServeCached) only a served hit is booked
// and reported on, because execution will read again after anything else.
func (s *Session) cachedHit(addr jobAddress, jobSpan *obs.Span, start time.Time, book bool) (*spec.Value, Info, bool) {
	var res spec.Value
	readStart := time.Now()
	hit, err := s.cache.Peek(addr.key, &res)
	served := hit && (addr.rng == nil) == (res.Partial == nil)
	if book || served {
		cache.BookGet(readStart, hit)
	}
	if err != nil && book {
		// The entry parsed but its value no longer decodes into a result:
		// recoverable (execution recomputes and overwrites it), but worth
		// one trace instead of a silent recompute.
		fmt.Fprintf(s.warn, "warning: %s: discarding undecodable cache entry: %v\n", addr.key.Scenario, err)
	}
	if !served {
		return nil, Info{}, false
	}
	if jobSpan != nil {
		jobSpan.SetAttr("cached", true)
	}
	elapsed := time.Since(start)
	res.SetExecutionMeta(0, elapsed.Seconds())
	return &res, Info{Cached: true, Trials: addr.runTrials, Elapsed: elapsed, CacheKey: addr.keyHash}, true
}

func executeResolved(ctx context.Context, s *Session, id string, job spec.Resolved) (*spec.Value, Info, error) {
	start := time.Now()
	c := job.Campaign
	ctx, jobSpan := startJobSpan(ctx, id, job)
	defer jobSpan.End()
	cfg := s.runnerConfig(job)
	cfg.Progress = s.progressCallback(c.Scenario.Name, id)
	cfg.Budget = engine.SharedBudget()
	runner, err := engine.NewRunner(cfg)
	if err != nil {
		return nil, Info{}, err
	}
	defer s.prog.Done(id)
	addr, err := s.address(job, runner)
	if err != nil {
		return nil, Info{}, err
	}
	rng := addr.rng
	if addr.keyHash != "" {
		unlock := s.lockKey(addr.keyHash)
		defer unlock()
		if res, info, ok := s.cachedHit(addr, jobSpan, start, true); ok {
			return res, info, nil
		}
		if rng == nil && !c.KeepTrialValues {
			// Full-key miss on an unretained full run: hand the job to the
			// prefix-reuse planner, which extends surviving range entries and
			// computes only the gaps (all of [0, trials) when nothing
			// survives — the cold run then banks its own range entry for the
			// next extension). Campaigns with retention (figure pins) stay
			// on the classic path: their range entries carry per-trial
			// values, which every plan would drag along — a cost that only
			// pays for the coordinator's distributed splits.
			return s.executePlanned(ctx, jobSpan, id, job, addr.key, addr.keyHash, addr.trials, addr.shardSize, start)
		}
	}
	var res *spec.Value
	if rng != nil {
		if jobSpan != nil {
			jobSpan.SetAttr("range_lo", rng.Lo).SetAttr("range_hi", rng.Hi)
		}
		partial, err := engine.RunCampaignPartialContext(ctx, runner, c, rng.Lo, rng.Hi)
		if err != nil {
			return nil, Info{}, err
		}
		res = &spec.Value{Partial: partial}
		s.mu.Lock()
		s.trialsExecuted += addr.runTrials
		s.mu.Unlock()
		if addr.keyHash != "" {
			_ = s.cache.Put(addr.key, res)
		}
		return res, Info{Trials: addr.runTrials, Elapsed: time.Since(start), CacheKey: addr.keyHash}, nil
	}
	var rep *engine.Report
	res, rep, err = engine.RunCampaignContext(ctx, runner, c)
	if err != nil {
		return nil, Info{}, err
	}
	s.mu.Lock()
	s.trialsExecuted += rep.Trials
	s.mu.Unlock()
	if addr.keyHash != "" {
		// Best-effort: a full disk or unwritable directory must not fail
		// the run whose result we already hold. Execution metadata is
		// cleared for the stored copy and restored on the returned one
		// (res.Report may alias rep, so capture the values first).
		workers, elapsed := rep.Workers, rep.ElapsedSeconds
		res.ClearExecutionMeta()
		_ = s.cache.Put(addr.key, res)
		res.SetExecutionMeta(workers, elapsed)
	}
	return res, Info{Trials: rep.Trials, Elapsed: time.Since(start), CacheKey: addr.keyHash}, nil
}

// Outcome is one job's result in a suite run.
type Outcome struct {
	// Spec identifies the job; Spec.ID is its display name and Spec.Hash()
	// its wire address.
	Spec   spec.JobSpec
	Result *spec.Value
	Info   Info
	Err    error
}

// ErrSkipped marks a job that never started because another job in the
// suite failed. With largest-first dispatch a skipped job may precede a
// genuine failure in submission order, so suite consumers looking for the
// suite's real error must skip ErrSkipped outcomes (errors.Is) — at least
// one non-skipped failure always exists when any job is skipped (more than
// one when several in-flight jobs fail concurrently).
var ErrSkipped = errors.New("run: skipped after suite failure")

// dispatchOrder returns the order the scheduler starts jobs in when
// overlapping: largest first — by trials × shard count, so campaigns with
// many individually heavy trials (which pin shard size 1) rank above
// campaigns with the same trial count in big shards — with submission order
// breaking ties. Starting the longest jobs first shortens the suite's
// critical path; emission order is unaffected.
func dispatchOrder(jobs []spec.Resolved) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	cost := func(j spec.Resolved) int { return j.Trials * j.Shards() }
	sort.SliceStable(order, func(a, b int) bool { return cost(jobs[order[a]]) > cost(jobs[order[b]]) })
	return order
}

// ExecuteAll is the suite scheduler: it runs the jobs through the session,
// overlapping up to Options.SuiteParallel independent campaigns (0 means
// GOMAXPROCS) on top of the engine's trial-level parallelism, with all
// campaigns drawing shard slots from the shared worker budget. When
// overlapping, jobs are dispatched largest-first (see dispatchOrder) so the
// longest campaigns anchor the critical path instead of straggling at the
// end. A failing job stops the suite: no further job starts (campaigns
// already in flight finish and report), and never-started jobs carry
// ErrSkipped — every submitted job always receives exactly one outcome.
//
// The returned slice is in submission order, and onDone (when non-nil) is
// invoked exactly once per job in submission order — job i only after jobs
// 0..i-1 — so streaming output is identical at every overlap factor and
// dispatch order. The engine's determinism contract makes each campaign's
// result byte-identical regardless of overlap. While onDone runs, the TTY
// progress block is suspended so the callback can print without the next
// repaint erasing its output.
func ExecuteAll(s *Session, jobs []spec.Resolved, onDone func(Outcome)) []Outcome {
	return executeAll(context.Background(), s, jobs, onDone, true)
}

// ExecuteAllContext is ExecuteAll with an observability context: each job
// records a run.queued span (submission to dispatch) and a run.job span (the
// execution itself) in the context's tracer, if any.
func ExecuteAllContext(ctx context.Context, s *Session, jobs []spec.Resolved, onDone func(Outcome)) []Outcome {
	return executeAll(ctx, s, jobs, onDone, true)
}

// ExecuteAllUnorderedContext is ExecuteAllContext with per-job completion
// latency instead of ordered streaming: onDone fires (serialized) as soon as
// each job finishes, regardless of its position in the submission. Services
// that answer polls per job (locd) use this so a fast or cached job is never
// held hostage by a long-running sibling; CLIs that stream suite output keep
// ExecuteAll's ordered emission.
func ExecuteAllUnorderedContext(ctx context.Context, s *Session, jobs []spec.Resolved, onDone func(Outcome)) []Outcome {
	return executeAll(ctx, s, jobs, onDone, false)
}

func executeAll(ctx context.Context, s *Session, jobs []spec.Resolved, onDone func(Outcome), ordered bool) []Outcome {
	overlap := s.opts.SuiteParallel
	if overlap <= 0 {
		overlap = runtime.GOMAXPROCS(0)
	}
	if overlap > len(jobs) {
		overlap = len(jobs)
	}
	// Every submitted job is queued until the scheduler dispatches it (or
	// marks it skipped): run_jobs_queued is the health endpoint's queue-depth
	// reading, and each job's run.queued span records its time in line.
	ids := make([]string, len(jobs))
	queued := make([]*obs.Span, len(jobs))
	for i := range jobs {
		ids[i] = jobs[i].Spec.Hash()
		_, qs := obs.Start(ctx, "run.queued")
		if qs != nil {
			qs.SetAttr("job", ids[i]).SetAttr("name", jobs[i].Spec.ID)
		}
		queued[i] = qs
	}
	obsQueued.Add(int64(len(jobs)))
	dequeue := func(i int, skipped bool) {
		if queued[i] != nil && skipped {
			queued[i].SetAttr("skipped", true)
		}
		queued[i].End()
		obsQueued.Add(-1)
	}
	outcomes := make([]Outcome, len(jobs))
	report := func(o Outcome) {
		if onDone == nil {
			return
		}
		s.prog.Suspend()
		onDone(o)
		s.prog.Resume()
	}
	var (
		mu     sync.Mutex
		ready  = make([]bool, len(jobs))
		next   int
		wg     sync.WaitGroup
		idx    = make(chan int)
		failed atomic.Bool
	)
	emit := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		if !ordered {
			report(outcomes[i])
			return
		}
		ready[i] = true
		for next < len(jobs) && ready[next] {
			report(outcomes[next])
			next++
		}
	}
	for w := 0; w < overlap; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// Re-check on receipt: the dispatcher may have been blocked
				// handing this index over while another job failed.
				if failed.Load() {
					dequeue(i, true)
					outcomes[i] = Outcome{Spec: jobs[i].Spec, Err: ErrSkipped}
				} else {
					dequeue(i, false)
					if outcomes[i] = runResolved(ctx, s, ids[i], jobs[i]); outcomes[i].Err != nil {
						failed.Store(true)
					}
				}
				emit(i)
			}
		}()
	}
	order := dispatchOrder(jobs)
	if overlap <= 1 {
		// One worker takes the jobs in submission order, so ordered output
		// still streams job by job; largest-first pays only when jobs
		// overlap.
		sort.Ints(order)
	}
	for k := 0; k < len(order); k++ {
		if failed.Load() {
			// Fail-fast, but still give every job its outcome — a service
			// keyed on per-job completion must never see a job silently
			// dropped from its batch. Don't start anything new; jobs already
			// handed out finish and report, the rest are marked skipped.
			// Emission stays in submission order, so a skipped job whose
			// submission index is below the failing job's is reported first
			// — which is why ErrSkipped documents that consumers must not
			// treat it as the suite's genuine failure.
			for _, i := range order[k:] {
				dequeue(i, true)
				outcomes[i] = Outcome{Spec: jobs[i].Spec, Err: ErrSkipped}
				emit(i)
			}
			break
		}
		idx <- order[k]
	}
	close(idx)
	wg.Wait()
	return outcomes
}

func runResolved(ctx context.Context, s *Session, id string, j spec.Resolved) Outcome {
	res, info, err := executeJob(ctx, s, id, j)
	return Outcome{Spec: j.Spec, Result: res, Info: info, Err: err}
}
