package engine

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"resilientloc/internal/obs"
	"resilientloc/internal/scratch"
	"resilientloc/internal/stats"
)

// Engine telemetry. Handles are resolved once at init so the per-shard hot
// path touches only atomics; spans cost nothing unless the caller's context
// carries a tracer (obs.Start returns nil then). None of it touches the
// result path, so golden outputs are byte-identical with telemetry on.
var (
	obsTrials     = obs.Default().Counter("engine_trials_total")
	obsShards     = obs.Default().Counter("engine_shards_total")
	obsShardSec   = obs.Default().Histogram("engine_shard_seconds", obs.DefLatencyBuckets)
	obsBudgetWait = obs.Default().Histogram("engine_budget_wait_seconds", obs.DefLatencyBuckets)
)

// DefaultShardSize is the number of consecutive trials aggregated into one
// shard. The shard partition depends only on the trial count — never on the
// worker count — which is what makes parallel runs reproduce serial ones.
const DefaultShardSize = 8

// Config parameterizes a Runner.
type Config struct {
	// Workers is the goroutine pool size; 0 means GOMAXPROCS.
	Workers int
	// Trials overrides the scenario's default trial count when positive.
	Trials int
	// Seed is the scenario seed every per-trial seed is derived from.
	Seed int64
	// ShardSize overrides DefaultShardSize when positive. Aggregates are
	// a deterministic function of (seed, trials, shard size) only.
	ShardSize int
	// Progress, when non-nil, is called after each shard finishes with the
	// cumulative number of completed trials and the total. Calls are
	// serialized but arrive in shard-completion order, which depends on
	// scheduling; done is monotonically non-decreasing across calls.
	Progress func(done, total int)
	// Budget, when non-nil, is a worker-slot pool this run shares with
	// other concurrently running Runners: each worker acquires one slot per
	// shard and releases it when the shard finishes, so overlapped campaigns
	// together stay within the budget instead of multiplying worker pools.
	// Nil means unbudgeted (the run's own Workers count is the only limit).
	Budget *Budget
}

// Runner executes campaigns' trials sharded across a worker pool; every run
// goes through RunCampaignPartial.
type Runner struct {
	cfg Config
}

// NewRunner validates cfg and returns a Runner.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("engine: NewRunner: negative worker count %d", cfg.Workers)
	}
	if cfg.Trials < 0 {
		return nil, fmt.Errorf("engine: NewRunner: negative trial count %d", cfg.Trials)
	}
	if cfg.ShardSize < 0 {
		return nil, fmt.Errorf("engine: NewRunner: negative shard size %d", cfg.ShardSize)
	}
	return &Runner{cfg: cfg}, nil
}

// MetricSummary aggregates every sample of one scalar metric across a run.
// Quantiles come from the merged stats.QuantileSketch and are accurate to
// its relative error; the moments come from the merged stats.Online.
type MetricSummary struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"std_dev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// SeriesSummary is the pointwise mean of a recorded series across trials.
type SeriesSummary struct {
	Name   string    `json:"name"`
	Trials int64     `json:"trials"`
	Mean   []float64 `json:"mean"`
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario       string          `json:"scenario"`
	Seed           int64           `json:"seed"`
	Trials         int             `json:"trials"`
	Workers        int             `json:"workers"`
	ElapsedSeconds float64         `json:"elapsed_seconds"`
	Metrics        []MetricSummary `json:"metrics"`
	Series         []SeriesSummary `json:"series,omitempty"`
}

// ClearExecutionMeta zeroes the fields describing one physical execution
// (worker count, wall time) rather than the deterministic aggregate. The
// result cache strips them before storing, so a cache hit can never replay
// the execution metadata of the run that populated the entry.
func (r *Report) ClearExecutionMeta() {
	r.Workers = 0
	r.ElapsedSeconds = 0
}

// SetExecutionMeta stamps the execution metadata of the current invocation.
func (r *Report) SetExecutionMeta(workers int, elapsedSeconds float64) {
	r.Workers = workers
	r.ElapsedSeconds = elapsedSeconds
}

// WriteSummary renders the report's text shape — header (with the
// caller-supplied execution descriptor, e.g. "8 workers, 0.52s" or
// "cached"), metric table, and series lines — shared by every
// report-printing CLI so the format cannot drift between them.
func (r *Report) WriteSummary(w io.Writer, how string) {
	fmt.Fprintf(w, "== %s: %d trials, seed %d, %s ==\n", r.Scenario, r.Trials, r.Seed, how)
	fmt.Fprintf(w, "  %-22s %7s %10s %10s %10s %10s %10s\n",
		"metric", "count", "mean", "std", "p50", "p90", "max")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-22s %7d %10.4f %10.4f %10.4f %10.4f %10.4f\n",
			m.Name, m.Count, m.Mean, m.StdDev, m.P50, m.P90, m.Max)
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "  series %s: %d points (pointwise mean over %d trials)\n",
			s.Name, len(s.Mean), s.Trials)
	}
}

// Metric returns the summary of the named metric, if present.
func (r *Report) Metric(name string) (MetricSummary, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSummary{}, false
}

// scalarAgg is one metric's streaming state within a shard.
type scalarAgg struct {
	online stats.Online
	sketch *stats.QuantileSketch
}

func newScalarAgg() *scalarAgg {
	sk, err := stats.NewQuantileSketch(stats.DefaultSketchAlpha)
	if err != nil {
		panic(err) // DefaultSketchAlpha is always valid
	}
	return &scalarAgg{sketch: sk}
}

func (a *scalarAgg) add(v float64) {
	if math.IsNaN(v) {
		return
	}
	a.online.Add(v)
	a.sketch.Add(v)
}

// seriesAgg is one series metric's pointwise streaming state.
type seriesAgg struct {
	points []stats.Online
	trials int64
}

// shardAgg accumulates one shard's trials. Shards are merged in ascending
// shard order, so any metric-name discovery order and every floating-point
// reduction is independent of scheduling.
type shardAgg struct {
	lo, hi int // trial index range [lo, hi)

	scalarOrder []string
	scalars     map[string]*scalarAgg
	seriesOrder []string
	series      map[string]*seriesAgg

	// raw holds the piece's per-trial samples in place of the aggregate; it
	// is non-nil exactly when a range boundary cuts through the shard.
	raw []TrialRecord

	err      error // first trial error in this shard
	errTrial int
}

func newShardAgg(lo, hi int) *shardAgg {
	return &shardAgg{
		lo: lo, hi: hi,
		scalars: make(map[string]*scalarAgg),
		series:  make(map[string]*seriesAgg),
	}
}

// runShard executes trials [lo, hi) of one shard serially. With raw false
// the trials fold into an in-memory aggregate; with raw true (a range
// boundary runs through the shard) each trial's samples are recorded
// instead, for the merging side to replay (see replayPieces).
func runShard(s Scenario, seed int64, lo, hi int, raw bool) *shardAgg {
	agg := newShardAgg(lo, hi)
	add := agg.fold
	if raw {
		agg.raw = make([]TrialRecord, 0, hi-lo)
		add = func(t *T) error {
			rec := TrialRecord{Trial: t.Trial}
			for _, smp := range t.scalars {
				rec.Scalars = append(rec.Scalars, ScalarSample{Name: smp.name, Value: stats.F64(smp.value)})
			}
			for _, ss := range t.series {
				rec.Series = append(rec.Series, SeriesRecord{Name: ss.name, Values: stats.ToF64(ss.values)})
			}
			agg.raw = append(agg.raw, rec)
			return nil
		}
	}
	ws := grabArena()
	defer releaseArena(ws)
	var shardData any
	if s.ShardInit != nil {
		shardData = s.ShardInit()
	}
	// One generator serves the whole shard: Seed resets its source and its
	// buffered Int63 bits, so each trial draws exactly the stream a fresh
	// rand.New(rand.NewSource(DeriveSeed(seed, trial))) would.
	rng := rand.New(rand.NewSource(0))
	for trial := lo; trial < hi; trial++ {
		rng.Seed(DeriveSeed(seed, trial))
		t := &T{Trial: trial, RNG: rng, ShardData: shardData, ws: ws}
		err := s.Run(t)
		// Rewind the arena before folding: fold only touches the T's own
		// recorded copies, never borrowed buffers.
		ws.Release()
		if err != nil {
			err = fmt.Errorf("engine: scenario %s: trial %d: %w", s.Name, trial, err)
		} else {
			err = add(t)
		}
		if err != nil {
			agg.err, agg.errTrial = err, trial
			return agg
		}
	}
	return agg
}

// arenaPool recycles scratch arenas across shards so a long campaign's
// steady state allocates nothing per shard either.
var arenaPool = sync.Pool{New: func() any { return scratch.New() }}

func grabArena() *scratch.Arena { return arenaPool.Get().(*scratch.Arena) }

func releaseArena(ws *scratch.Arena) {
	ws.Release()
	arenaPool.Put(ws)
}

func (agg *shardAgg) fold(t *T) error {
	for _, smp := range t.scalars {
		a, ok := agg.scalars[smp.name]
		if !ok {
			a = newScalarAgg()
			agg.scalars[smp.name] = a
			agg.scalarOrder = append(agg.scalarOrder, smp.name)
		}
		a.add(smp.value)
	}
	for _, ss := range t.series {
		a, ok := agg.series[ss.name]
		if !ok {
			a = &seriesAgg{points: make([]stats.Online, len(ss.values))}
			agg.series[ss.name] = a
			agg.seriesOrder = append(agg.seriesOrder, ss.name)
		}
		if len(ss.values) != len(a.points) {
			return fmt.Errorf("engine: series %q length %d differs from earlier trials' %d (trial %d)",
				ss.name, len(ss.values), len(a.points), t.Trial)
		}
		for i, v := range ss.values {
			a.points[i].Add(v)
		}
		a.trials++
	}
	return nil
}

// execute is the engine's one shard loop: it runs the shard pieces of
// trials [lo, hi) of a trials-trial run across the worker pool, one budget
// slot per piece, and returns their aggregates in shard order. A piece that
// a range boundary cuts through records raw trials instead of an aggregate.
// A failing trial stops only its own shard, so the result and any error are
// a pure function of the inputs: if several trials fail, the error of the
// lowest-indexed one is returned.
func (r *Runner) execute(ctx context.Context, s Scenario, trials, shardSize, lo, hi int) ([]*shardAgg, error) {
	bounds := pieceBounds(lo, hi, shardSize, trials)
	workers := r.cfg.Workers
	if workers == 0 {
		workers = defaultWorkers()
	}
	if workers > len(bounds) {
		workers = len(bounds)
	}

	ctx, runSpan := obs.Start(ctx, "engine.run")
	if runSpan != nil {
		runSpan.SetAttr("scenario", s.Name).SetAttr("trials", trials).SetAttr("shard_size", shardSize).
			SetAttr("lo", lo).SetAttr("hi", hi)
	}
	defer runSpan.End()

	aggs := make([]*shardAgg, len(bounds))
	runPiece := func(pi int) int {
		r.acquireBudget(ctx)
		if r.cfg.Budget != nil {
			defer r.cfg.Budget.release()
		}
		si, pLo, pHi := bounds[pi][0], bounds[pi][1], bounds[pi][2]
		sLo, sHi := shardBounds(si, shardSize, trials)
		_, shardSpan := obs.Start(ctx, "engine.shard")
		if shardSpan != nil {
			shardSpan.SetAttr("shard", si).SetAttr("lo", pLo).SetAttr("hi", pHi)
		}
		shardStart := time.Now()
		agg := runShard(s, r.cfg.Seed, pLo, pHi, pLo != sLo || pHi != sHi)
		aggs[pi] = agg
		obsShardSec.Observe(time.Since(shardStart).Seconds())
		obsShards.Inc()
		completed := pHi - pLo
		if agg.err != nil {
			// The failing trial and the rest of its shard never completed;
			// don't over-report.
			completed = agg.errTrial - pLo
			if shardSpan != nil {
				shardSpan.SetAttr("error", agg.err.Error())
			}
		}
		obsTrials.Add(int64(completed))
		shardSpan.End()
		return completed
	}

	// Progress callbacks are serialized and report the cumulative count of
	// completed trials against the range's size, in completion order.
	jobs := make(chan int)
	var (
		wg         sync.WaitGroup
		progressMu sync.Mutex
		done       int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pi := range jobs {
				completed := runPiece(pi)
				if r.cfg.Progress != nil {
					progressMu.Lock()
					done += completed
					r.cfg.Progress(done, hi-lo)
					progressMu.Unlock()
				}
			}
		}()
	}
	for pi := range bounds {
		jobs <- pi
	}
	close(jobs)
	wg.Wait()
	if err := firstError(aggs); err != nil {
		return nil, err
	}
	return aggs, nil
}

// acquireBudget claims one shared-budget slot (when a budget is
// configured), recording how long the shard waited for it — the direct
// measure of budget saturation — as a histogram sample and, under tracing,
// an engine.budget.wait span. The caller releases the slot.
func (r *Runner) acquireBudget(ctx context.Context) {
	if r.cfg.Budget == nil {
		return
	}
	_, waitSpan := obs.Start(ctx, "engine.budget.wait")
	waitStart := time.Now()
	r.cfg.Budget.acquire()
	obsBudgetWait.Observe(time.Since(waitStart).Seconds())
	waitSpan.End()
}

// defaultWorkers is the pool size when Config.Workers is 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// firstError returns the error of the lowest-indexed failing trial.
func firstError(aggs []*shardAgg) error {
	var first error
	firstTrial := -1
	for _, a := range aggs {
		if a.err != nil && (firstTrial == -1 || a.errTrial < firstTrial) {
			first, firstTrial = a.err, a.errTrial
		}
	}
	return first
}

// mergeShards folds the per-shard aggregates, in ascending shard order,
// into one Report.
func mergeShards(scenario string, seed int64, aggs []*shardAgg, trials int) (*Report, error) {
	rep := &Report{Scenario: scenario, Seed: seed, Trials: trials}
	scalarOrder := []string{}
	scalars := map[string]*scalarAgg{}
	seriesOrder := []string{}
	series := map[string]*seriesAgg{}

	for _, a := range aggs {
		for _, name := range a.scalarOrder {
			dst, ok := scalars[name]
			if !ok {
				dst = newScalarAgg()
				scalars[name] = dst
				scalarOrder = append(scalarOrder, name)
			}
			src := a.scalars[name]
			dst.online.Merge(&src.online)
			if err := dst.sketch.Merge(src.sketch); err != nil {
				return nil, fmt.Errorf("engine: scenario %s: %w", scenario, err)
			}
		}
		for _, name := range a.seriesOrder {
			src := a.series[name]
			dst, ok := series[name]
			if !ok {
				dst = &seriesAgg{points: make([]stats.Online, len(src.points))}
				series[name] = dst
				seriesOrder = append(seriesOrder, name)
			}
			if len(src.points) != len(dst.points) {
				return nil, fmt.Errorf("engine: scenario %s: series %q length differs across shards (%d vs %d)",
					scenario, name, len(src.points), len(dst.points))
			}
			for i := range src.points {
				dst.points[i].Merge(&src.points[i])
			}
			dst.trials += src.trials
		}
	}

	for _, name := range scalarOrder {
		a := scalars[name]
		m := MetricSummary{
			Name:   name,
			Count:  a.online.N(),
			Mean:   a.online.Mean(),
			StdDev: a.online.StdDev(),
			Min:    a.online.Min(),
			Max:    a.online.Max(),
		}
		if a.sketch.Count() > 0 {
			m.P50, _ = a.sketch.Quantile(0.5)
			m.P90, _ = a.sketch.Quantile(0.9)
			m.P99, _ = a.sketch.Quantile(0.99)
		}
		rep.Metrics = append(rep.Metrics, m)
	}
	for _, name := range seriesOrder {
		a := series[name]
		mean := make([]float64, len(a.points))
		for i := range a.points {
			mean[i] = a.points[i].Mean()
		}
		rep.Series = append(rep.Series, SeriesSummary{Name: name, Trials: a.trials, Mean: mean})
	}
	return rep, nil
}
