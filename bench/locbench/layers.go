package main

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"resilientloc/internal/core"
	"resilientloc/internal/deploy"
	"resilientloc/internal/engine/cache"
	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/obs"
	"resilientloc/internal/scratch"
)

// metricDef is one metric the benchmark reports. For a per-layer metric,
// layer names the module it measures and note the end-to-end metric and
// workload it should move.
type metricDef struct {
	name, unit, better, layer, note string
}

var layerDefs = []metricDef{
	{"core.lss_solve_ms", "ms", "lower", "core", "job_p50_ms, cpu_ms_per_job on lss-cold; nothing on warm-mixed"},
	{"core.lss_allocs", "count", "lower", "core", "cpu_ms_per_job on lss-cold"},
	{"core.multilat_solve_ms", "ms", "lower", "core", "job_p50_ms, cpu_ms_per_job on grid-wire-cold and fleet-cold"},
	{"core.multilat_allocs", "count", "lower", "core", "cpu_ms_per_job on grid-wire-cold and fleet-cold"},
	{"engine.trials", "count", "lower", "engine", "cpu_ms_per_job everywhere (work done)"},
	{"engine.shard_busy_s", "s", "lower", "engine", "cpu_ms_per_job everywhere"},
	{"engine.shard_p50_ms", "ms", "lower", "engine", "job_p50_ms on lss-cold, grid-wire-cold, fleet-cold"},
	{"engine.budget_wait_s", "s", "lower", "engine", "job_p90_ms on warm-mixed and fleet-cold (shared 2-slot budget)"},
	{"run.plan_ms", "ms", "lower", "run", "job_p90_ms, jobs_per_s on warm-mixed; about 0 on lss-cold"},
	{"run.reused_trials", "count", "higher", "run", "job_p90_ms on warm-mixed"},
	{"run.hit_ratio", "ratio", "higher", "run", "jobs_per_s on warm-mixed"},
	{"run.hit_p50_ms", "ms", "lower", "run", "job_p50_ms on warm-mixed"},
	{"run.miss_p50_ms", "ms", "lower", "run", "jobs_per_s on warm-mixed; job_p50_ms on cold workloads"},
	{"run.extend_p50_ms", "ms", "lower", "run", "job_p90_ms on warm-mixed"},
	{"cache.probe_ms", "ms", "lower", "cache", "job_p90_ms, jobs_per_s on warm-mixed; little on lss-cold"},
	{"cache.get_ms", "ms", "lower", "cache", "job_p50_ms on warm-mixed"},
	{"cache.put_ms", "ms", "lower", "cache", "jobs_per_s on warm-mixed"},
	{"cache.gets", "count", "lower", "cache", "context: cache reads"},
	{"cache.puts", "count", "lower", "cache", "context: cache writes"},
	{"cache.entries", "count", "lower", "cache", "context: working-set entries"},
	{"cache.dir_mb", "MiB", "lower", "cache", "context: working-set size"},
	{"locsrv.submit_ms", "ms", "lower", "locsrv", "job_p50_ms on warm-mixed and grid-wire-cold"},
	{"locsrv.stream_ms", "ms", "lower", "locsrv", "job_p50_ms on grid-wire-cold"},
	{"locsrv.fetch_ms", "ms", "lower", "locsrv", "job_p50_ms on warm-mixed and grid-wire-cold"},
	{"locsrv.fetch_kb", "KiB", "lower", "locsrv", "job_p50_ms on warm-mixed"},
	{"locsrv.rejected", "count", "lower", "locsrv", "failed (429s count as failed jobs)"},
	{"locsrv.self_ms", "ms", "lower", "locsrv", "job_p50_ms on warm-mixed and grid-wire-cold"},
	{"coord.ranges_per_job", "count", "lower", "coord", "job_p50_ms, job_p90_ms on fleet-cold; nothing elsewhere"},
	{"coord.retries", "count", "lower", "coord", "job_p90_ms on fleet-cold"},
	{"coord.hedges", "count", "lower", "coord", "job_p90_ms on fleet-cold"},
	{"coord.dedup_losses", "count", "lower", "coord", "cpu_ms_per_job on fleet-cold"},
	{"coord.steals", "count", "lower", "coord", "job_p90_ms on fleet-cold"},
	{"coord.range_p50_ms", "ms", "lower", "coord", "job_p50_ms on fleet-cold"},
	{"coord.self_ms", "ms", "lower", "coord", "job_p50_ms, job_p90_ms on fleet-cold"},
	{"ledger.engine_ms", "ms", "lower", "ledger", "raw compute of the reference job: every workload"},
	{"ledger.merge_ms", "ms", "lower", "ledger", "job_p50_ms on fleet-cold"},
	{"ledger.session_cold_ms", "ms", "lower", "ledger", "session overhead: every workload"},
	{"ledger.session_warm_ms", "ms", "lower", "ledger", "job_p50_ms on warm-mixed"},
	{"ledger.session_extend_ms", "ms", "lower", "ledger", "job_p90_ms on warm-mixed"},
	{"ledger.wire_cold_ms", "ms", "lower", "ledger", "wire overhead: grid-wire-cold"},
	{"ledger.wire_warm_ms", "ms", "lower", "ledger", "job_p50_ms on warm-mixed"},
	{"ledger.fleet_cold_ms", "ms", "lower", "ledger", "fleet overhead: fleet-cold"},
	{"trace.overhead_pct", "%", "lower", "trace", "nothing (a guard on the traced numbers)"},
}

// layerInput is what one traced stretch of work left behind: its spans,
// the process metric registry before and after, the coordinator's stats
// per job, and the cache directories it used.
type layerInput struct {
	spans         []obs.SpanRecord
	before, after obs.Snapshot
	stats         []coord.Stats
	probeMS       []float64
	entries       int
	bytes         int64
}

// layerValues computes every workload-measured per-layer metric. A metric
// whose layer the work never reached is NaN.
func layerValues(in layerInput) map[string]float64 {
	v := map[string]float64{}
	byName := map[string][]obs.SpanRecord{}
	byID := map[int64]obs.SpanRecord{}
	for _, s := range in.spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.ID] = s
	}
	counter := func(name string) float64 { return float64(in.after.Counters[name] - in.before.Counters[name]) }
	histMeanMS := func(name string) float64 {
		n, sum := histDelta(in.before, in.after, name)
		return 1000 * sum / float64(n) // NaN for no observations
	}

	shards := durationsMS(byName["engine.shard"])
	v["engine.trials"] = counter("engine_trials_total")
	v["engine.shard_busy_s"] = sumOrNaN(shards) / 1000
	v["engine.shard_p50_ms"] = median(shards)
	v["engine.budget_wait_s"] = sumOrNaN(durationsMS(byName["engine.budget.wait"])) / 1000

	v["run.plan_ms"] = median(durationsMS(byName["run.plan"]))
	v["run.reused_trials"] = counter("run_reused_trials_total")
	v["run.hit_ratio"] = counter("cache_hit_total") / counter("cache_get_total")
	classes := map[string][]float64{}
	for _, s := range byName["run.job"] {
		c := classMiss
		switch {
		case s.Attrs["cached"] == true:
			c = classHit
		case attrInt(s.Attrs["reused_trials"]) > 0:
			c = classExtend
		}
		classes[c] = append(classes[c], usToMS(s.DurUS))
	}
	v["run.hit_p50_ms"] = median(classes[classHit])
	v["run.miss_p50_ms"] = median(classes[classMiss])
	v["run.extend_p50_ms"] = median(classes[classExtend])

	v["cache.probe_ms"] = median(in.probeMS)
	v["cache.get_ms"] = histMeanMS("cache_get_seconds")
	v["cache.put_ms"] = histMeanMS("cache_put_seconds")
	v["cache.gets"] = counter("cache_get_total")
	v["cache.puts"] = counter("cache_put_total")
	v["cache.entries"] = float64(in.entries)
	v["cache.dir_mb"] = float64(in.bytes) / (1 << 20)

	submits := byName["locsrv.submit"]
	v["locsrv.submit_ms"] = median(durationsMS(submits))
	v["locsrv.stream_ms"] = median(durationsMS(byName["locsrv.stream"]))
	v["locsrv.fetch_ms"] = median(durationsMS(byName["locsrv.fetch"]))
	var fetchKB []float64
	for _, s := range byName["locsrv.fetch"] {
		fetchKB = append(fetchKB, float64(attrInt(s.Attrs["bytes"]))/1024)
	}
	v["locsrv.fetch_kb"] = median(fetchKB)
	v["locsrv.rejected"] = math.NaN()
	if len(submits) > 0 {
		rejected := 0
		for _, s := range submits {
			if attrInt(s.Attrs["status"]) == 429 {
				rejected++
			}
		}
		v["locsrv.rejected"] = float64(rejected)
	}
	// A server-side run.job hanging directly off a client round trip (or a
	// coordinator range) was imported from the job summary: the difference
	// is what the wire added around the server's own work.
	var wireSelf []float64
	for _, s := range byName["run.job"] {
		if p, ok := byID[s.Parent]; ok && (p.Name == "locsrv.job" || p.Name == "coord.range") {
			wireSelf = append(wireSelf, usToMS(p.DurUS-s.DurUS))
		}
	}
	v["locsrv.self_ms"] = median(wireSelf)

	for _, k := range []string{"coord.ranges_per_job", "coord.retries", "coord.hedges", "coord.dedup_losses", "coord.steals"} {
		v[k] = math.NaN()
	}
	if n := len(in.stats); n > 0 {
		var ranges, retries, hedges, losses, steals int
		for _, st := range in.stats {
			ranges += st.Ranges
			retries += st.Retries
			hedges += st.Hedges
			losses += st.DedupLosses
			steals += st.Steals
		}
		v["coord.ranges_per_job"] = float64(ranges) / float64(n)
		v["coord.retries"] = float64(retries)
		v["coord.hedges"] = float64(hedges)
		v["coord.dedup_losses"] = float64(losses)
		v["coord.steals"] = float64(steals)
	}
	v["coord.range_p50_ms"] = median(durationsMS(byName["coord.range"]))
	var coordSelf []float64
	for _, j := range byName["coord.job"] {
		var children [][2]int64
		for _, r := range byName["coord.range"] {
			if r.Parent == j.ID {
				children = append(children, [2]int64{r.StartUS, r.StartUS + r.DurUS})
			}
		}
		coordSelf = append(coordSelf, usToMS(j.DurUS-unionUS(children)))
	}
	v["coord.self_ms"] = median(coordSelf)
	return v
}

// histDelta is a histogram's observation count and sum between snapshots.
func histDelta(before, after obs.Snapshot, name string) (int64, float64) {
	find := func(s obs.Snapshot) (int64, float64) {
		for _, h := range s.Histograms {
			if h.Name == name {
				return h.Count, h.Sum
			}
		}
		return 0, 0
	}
	n0, s0 := find(before)
	n1, s1 := find(after)
	return n1 - n0, s1 - s0
}

// attrInt reads an integer span attribute, recorded in process (int) or
// decoded from a job summary (float64).
func attrInt(a any) int64 {
	switch x := a.(type) {
	case int:
		return int64(x)
	case int64:
		return x
	case float64:
		return int64(x)
	}
	return 0
}

func usToMS(us int64) float64 { return float64(us) / 1000 }

func durationsMS(spans []obs.SpanRecord) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = usToMS(s.DurUS)
	}
	return out
}

func sumOrNaN(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// unionUS is the total length covered by a set of [start, end) intervals.
func unionUS(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// probeCache times the cache's range probe — the scan every
// planner-eligible miss pays — on a directory as the run left it.
func probeCache(dir string, sp spec.JobSpec) ([]float64, error) {
	job, err := spec.Resolve(sp)
	if err != nil {
		return nil, err
	}
	c, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	key := cache.Key{Kind: sp.Kind, Scenario: job.Campaign.Scenario.Name, Seed: sp.Seed, Trials: job.TotalTrials,
		ShardSize: job.ShardSize, Fingerprint: cache.Fingerprint()}
	if len(job.Params) > 0 {
		key.Params = string(job.Params.Canonical())
	}
	var ms []float64
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		if _, err := c.RangeEntries(key); err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(t0).Microseconds())/1000)
	}
	return ms, nil
}

// dirStats counts the cache entries and their bytes across directories.
func dirStats(dirs []string) (int, int64) {
	n, size := 0, int64(0)
	for _, d := range dirs {
		entries, _ := os.ReadDir(d)
		for _, e := range entries {
			if fi, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".json") {
				n++
				size += fi.Size()
			}
		}
	}
	return n, size
}

// coreBench times the paper's two solvers by calling them directly, 20
// times each on one fixed input, after one warm-up call fills the scratch
// arena: median wall time and heap allocations per call.
func coreBench(seed int64) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	town := deploy.Town(rng)
	townSet, err := measure.Generate(town, 22, measure.GaussianNoise, rng)
	if err != nil {
		return nil, err
	}
	lssCfg := core.DefaultLSSConfig(9)
	lssMS, lssAllocs, err := timeCalls(func(ws *scratch.Arena) error {
		_, err := core.SolveLSSIn(ws, townSet, lssCfg, rand.New(rand.NewSource(seed)))
		return err
	})
	if err != nil {
		return nil, err
	}

	grid, err := deploy.OffsetGrid(14, 14, 9, 10)
	if err != nil {
		return nil, err
	}
	if err := grid.ChooseRandomAnchors(grid.N()/10, rng); err != nil {
		return nil, err
	}
	gridSet, err := measure.Generate(grid, 22, measure.GaussianNoise, rng)
	if err != nil {
		return nil, err
	}
	anchors := make(map[int]geom.Point, len(grid.Anchors))
	for _, a := range grid.Anchors {
		anchors[a] = grid.Positions[a]
	}
	mlCfg := core.DefaultMultilatConfig()
	mlCfg.Progressive = true
	mlMS, mlAllocs, err := timeCalls(func(ws *scratch.Arena) error {
		_, err := core.SolveMultilaterationIn(ws, gridSet, anchors, mlCfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"core.lss_solve_ms": lssMS, "core.lss_allocs": lssAllocs,
		"core.multilat_solve_ms": mlMS, "core.multilat_allocs": mlAllocs,
	}, nil
}

const coreCalls = 20

func timeCalls(call func(*scratch.Arena) error) (p50ms, allocs float64, err error) {
	ws := scratch.New()
	if err := call(ws); err != nil {
		return 0, 0, err
	}
	ws.Release()
	var ms []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < coreCalls; i++ {
		t0 := time.Now()
		err := call(ws)
		ms = append(ms, float64(time.Since(t0).Microseconds())/1000)
		ws.Release()
		if err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return median(ms), float64(m1.Mallocs-m0.Mallocs) / coreCalls, nil
}
