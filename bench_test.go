// Package resilientloc's root benchmark suite: one benchmark per paper
// figure (regenerating the figure's data end-to-end each iteration and
// reporting its headline metric), plus ablation benchmarks for the design
// choices called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem
package resilientloc_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"resilientloc/internal/acoustics"
	"resilientloc/internal/core"
	"resilientloc/internal/deploy"
	"resilientloc/internal/engine"
	enginerun "resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/eval"
	"resilientloc/internal/experiments"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/ranging"
	"resilientloc/internal/scratch"
	"resilientloc/internal/signal"
)

// benchExperiment runs one figure reproduction per iteration and reports
// the named metrics via b.ReportMetric.
func benchExperiment(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("experiment %s not found", id)
	}
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := e.RunWorkers(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for name, unit := range metrics {
		if v, ok := last.Get(name); ok {
			b.ReportMetric(v, unit)
		}
	}
}

func BenchmarkFig02BaselineRangingUrban(b *testing.B) {
	benchExperiment(b, "fig02", map[string]string{
		"fraction |error| > 1 m": "large_err_frac",
		"median |error|":         "median_abs_err_m",
	})
}

func BenchmarkFig04MedianFiltering(b *testing.B) {
	benchExperiment(b, "fig04", map[string]string{
		"filtered fraction |error| > 1 m": "filtered_large_frac",
	})
}

func BenchmarkFig06RefinedErrorHistogram(b *testing.B) {
	benchExperiment(b, "fig06", map[string]string{
		"fraction within ±30 cm": "core_frac",
		"median |error|":         "median_abs_err_m",
	})
}

func BenchmarkFig07BidirectionalFilter(b *testing.B) {
	benchExperiment(b, "fig07", map[string]string{
		"bidirectional fraction |error| > 1 m": "bidir_large_frac",
	})
}

func BenchmarkFig08ErrorVsDistance(b *testing.B) {
	benchExperiment(b, "fig08", map[string]string{
		"large-error fraction, farthest bin": "far_large_frac",
	})
}

func BenchmarkFig10DFTToneDetection(b *testing.B) {
	benchExperiment(b, "fig10", map[string]string{
		"noisy chirps detected (of 4)": "noisy_detected",
	})
}

func BenchmarkMaxRangeSweep(b *testing.B) {
	benchExperiment(b, "maxrange", map[string]string{
		"grass @10m (T=2)":    "grass10",
		"pavement @25m (T=2)": "pave25",
	})
}

func BenchmarkFig11IntersectionConsistency(b *testing.B) {
	benchExperiment(b, "fig11", map[string]string{
		"error with consistency check": "checked_err_m",
	})
}

func BenchmarkFig12MultilatParkingLot(b *testing.B) {
	benchExperiment(b, "fig12", map[string]string{
		"average localization error": "avg_err_m",
	})
}

func BenchmarkFig14MultilatSparseGrid(b *testing.B) {
	benchExperiment(b, "fig14", map[string]string{
		"localized fraction": "localized_frac",
		"anchors per node":   "anchors_per_node",
	})
}

func BenchmarkFig16MultilatAugmentedGrid(b *testing.B) {
	benchExperiment(b, "fig16", map[string]string{
		"localized fraction":         "localized_frac",
		"average error of localized": "avg_err_m",
	})
}

func BenchmarkFig18LSSGridConstrained(b *testing.B) {
	benchExperiment(b, "fig18", map[string]string{
		"average error": "avg_err_m",
	})
}

func BenchmarkFig19LSSGridUnconstrained(b *testing.B) {
	benchExperiment(b, "fig19", map[string]string{
		"average error": "avg_err_m",
	})
}

func BenchmarkFig20MultilatTown(b *testing.B) {
	benchExperiment(b, "fig20", map[string]string{
		"average error of localized": "avg_err_m",
	})
}

func BenchmarkFig21LSSTownConstrained(b *testing.B) {
	benchExperiment(b, "fig21", map[string]string{
		"average error": "avg_err_m",
	})
}

func BenchmarkFig22LSSTownUnconstrained(b *testing.B) {
	benchExperiment(b, "fig22", map[string]string{
		"mean single-descent error, no constraint": "unconstrained_err_m",
	})
}

func BenchmarkFig23ConvergenceCurves(b *testing.B) {
	benchExperiment(b, "fig23", map[string]string{
		"final mean E with constraint": "final_E",
	})
}

func BenchmarkFig24DistributedSparse(b *testing.B) {
	benchExperiment(b, "fig24", map[string]string{
		"average error of aligned": "avg_err_m",
	})
}

func BenchmarkFig25DistributedExtended(b *testing.B) {
	benchExperiment(b, "fig25", map[string]string{
		"average error of aligned": "avg_err_m",
	})
}

// --- Scenario-engine benchmarks ------------------------------------------

// benchScenarioRunner runs a representative library scenario (the town
// multilateration Monte Carlo) through the engine at the given worker
// count. Comparing BenchmarkRunnerSerial with BenchmarkRunnerParallel
// demonstrates the engine's near-linear speedup: both produce byte-
// identical aggregates, so the speedup is free.
func benchScenarioRunner(b *testing.B, workers int) {
	b.Helper()
	s, ok := engine.Find("multilat-town")
	if !ok {
		b.Fatal("multilat-town missing from scenario library")
	}
	r, err := engine.NewRunner(engine.Config{Workers: workers, Trials: 64, ShardSize: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var rep *engine.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = r.Run(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	if m, ok := rep.Metric("avg_error_m"); ok {
		b.ReportMetric(m.Mean, "avg_err_m")
	}
}

func BenchmarkRunnerSerial(b *testing.B)   { benchScenarioRunner(b, 1) }
func BenchmarkRunnerParallel(b *testing.B) { benchScenarioRunner(b, runtime.GOMAXPROCS(0)) }

// --- Figure-suite benchmarks ---------------------------------------------

// fastFigSuite is the subset of the figure suite cheap enough to regenerate
// end-to-end each benchmark iteration (it excludes the multi-second LSS
// grid/town minimizations but keeps every campaign shape: single-trial
// figures and the 36-trial maxrange sweep).
var fastFigSuite = []string{
	"fig02", "fig04", "fig06", "fig07", "fig08", "fig10",
	"maxrange", "fig11", "fig12", "fig14", "fig16", "fig20",
}

// benchFigSuite regenerates the fast figure subset through the engine
// campaign path at the given worker count. Serial-vs-parallel timings track
// the suite's wall-clock trajectory; output is identical at both.
func benchFigSuite(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, id := range fastFigSuite {
			e, ok := experiments.Find(id)
			if !ok {
				b.Fatalf("experiment %s not found", id)
			}
			if _, err := e.RunWorkers(1, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigSuiteSerial(b *testing.B)   { benchFigSuite(b, 1) }
func BenchmarkFigSuiteParallel(b *testing.B) { benchFigSuite(b, runtime.GOMAXPROCS(0)) }

// BenchmarkFigSuiteOverlapped runs the same fast figure subset through the
// suite scheduler with campaign-level overlap on top of trial-level
// parallelism, all campaigns drawing from the shared worker budget. The
// single-trial figures can never fill the machine alone, so overlapping
// them is where suite wall-clock drops below BenchmarkFigSuiteParallel —
// and far below BenchmarkFigSuiteSerial — while producing byte-identical
// results (pinned by the run package's suite tests).
func BenchmarkFigSuiteOverlapped(b *testing.B) {
	specs := make([]spec.JobSpec, len(fastFigSuite))
	for i, id := range fastFigSuite {
		specs[i] = spec.JobSpec{Kind: spec.KindFigure, ID: id, Seed: 1}
	}
	jobs, err := spec.ResolveAll(specs)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := enginerun.NewSession(enginerun.Options{
		Seed:          1,
		NoCache:       true,
		SuiteParallel: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range enginerun.ExecuteAll(sess, jobs, nil) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
	}
}

// BenchmarkFigSuiteCacheHit measures a fully warmed suite pass through the
// unified runner: every figure is served from the on-disk result cache with
// zero trial computation, so this is the floor repeated suite runs pay.
func BenchmarkFigSuiteCacheHit(b *testing.B) {
	sess, err := enginerun.NewSession(enginerun.Options{Seed: 1, CacheDir: filepath.Join(b.TempDir(), "cache")})
	if err != nil {
		b.Fatal(err)
	}
	warm := func(requireHit bool) {
		for _, id := range fastFigSuite {
			_, info, err := enginerun.ExecuteSpec(sess, spec.JobSpec{Kind: spec.KindFigure, ID: id, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if requireHit && !info.Cached {
				b.Fatalf("%s missed the warm cache", id)
			}
		}
	}
	warm(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm(true)
	}
}

// --- Distributed-coordinator benchmarks ----------------------------------

// BenchmarkPartialRun executes one quarter-range of the 64-trial town
// multilateration scenario as a serializable partial — the unit of work a
// locd worker performs for the trial-range coordinator. Compare against a
// quarter of BenchmarkRunnerParallel's time to read the partial-execution
// overhead (piece bookkeeping plus aggregate serialization structures).
func BenchmarkPartialRun(b *testing.B) {
	s, ok := engine.Find("multilat-town")
	if !ok {
		b.Fatal("multilat-town missing from scenario library")
	}
	r, err := engine.NewRunner(engine.Config{Trials: 64, ShardSize: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunPartial(s, 16, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordMerge measures reassembling a fully partitioned run from
// its wire-encoded partials — the coordinator's merge step, including the
// JSON decode each partial pays crossing the process boundary. The
// partition is deliberately unaligned (8 ranges over shard size 2 with odd
// boundaries) so both the state-restore and raw-replay merge paths run.
func BenchmarkCoordMerge(b *testing.B) {
	s, ok := engine.Find("multilat-town")
	if !ok {
		b.Fatal("multilat-town missing from scenario library")
	}
	r, err := engine.NewRunner(engine.Config{Trials: 64, ShardSize: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cuts := []int{0, 7, 16, 21, 32, 33, 40, 57, 64}
	var encoded [][]byte
	for i := 0; i+1 < len(cuts); i++ {
		p, err := r.RunPartial(s, cuts[i], cuts[i+1])
		if err != nil {
			b.Fatal(err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			b.Fatal(err)
		}
		encoded = append(encoded, raw)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := make([]*engine.Partial, len(encoded))
		for j, raw := range encoded {
			parts[j] = new(engine.Partial)
			if err := json.Unmarshal(raw, parts[j]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := engine.MergePartials(parts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks -------------------------------------------------

// BenchmarkAblationChirpLength compares the 8 ms chirp against the original
// 64 ms chirp (§3.6: long chirps cause late-detection overestimates).
func BenchmarkAblationChirpLength(b *testing.B) {
	for _, tc := range []struct {
		name     string
		chirpLen int
	}{
		{"8ms", 128},
		{"64ms", 1024},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var overPer100, maxOver float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(7))
				cfg := ranging.DefaultConfig(acoustics.Grass())
				cfg.Pattern.ChirpLen = tc.chirpLen
				cfg.Units.FaultProb = 0
				// A 20 m pair on grass sits right at the detection margin:
				// the early part of each chirp is usually missed, which a
				// long chirp converts into late-detection overestimates
				// (§3.6: "a long chirp has more chances of its later part
				// being detected when its early part is missed"; the paper
				// reports ~3 m maximum overestimate for 8 ms chirps).
				const d = 20.0
				dep := &deploy.Deployment{
					Name:      "pair",
					Positions: []geom.Point{geom.Pt(0, 0), geom.Pt(d, 0)},
				}
				svc, err := ranging.NewService(cfg, dep, rng)
				if err != nil {
					b.Fatal(err)
				}
				over := 0
				maxOver = 0
				const rounds = 100
				for round := 0; round < rounds; round++ {
					if m, ok := svc.MeasurePair(0, 1); ok {
						if m-d > 1 {
							over++
						}
						if m-d > maxOver {
							maxOver = m - d
						}
					}
				}
				overPer100 = float64(over) * 100 / rounds
			}
			b.ReportMetric(overPer100, "over1m_per100")
			b.ReportMetric(maxOver, "max_over_m")
		})
	}
}

// BenchmarkAblationFilter compares median against mode statistical
// filtering on repeated noisy measurements with outliers (§3.5).
func BenchmarkAblationFilter(b *testing.B) {
	for _, tc := range []struct {
		name string
		kind measure.FilterKind
	}{
		{"median", measure.FilterMedian},
		{"mode", measure.FilterMode},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var absErr float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(11))
				raw, err := measure.NewRaw(2)
				if err != nil {
					b.Fatal(err)
				}
				const truth = 12.0
				for k := 0; k < 9; k++ {
					d := truth + rng.NormFloat64()*0.15
					if k%4 == 3 { // 25% outliers
						d = truth + 3 + rng.Float64()*5
					}
					if err := raw.Add(0, 1, d); err != nil {
						b.Fatal(err)
					}
				}
				est := raw.Filter(tc.kind, 5)[[2]int{0, 1}]
				absErr = math.Abs(est - truth)
			}
			b.ReportMetric(absErr, "abs_err_m")
		})
	}
}

// BenchmarkAblationConstraintWeight sweeps the soft-constraint weight wD on
// the sparse grid (DESIGN.md ablation; the paper uses wD=10).
func BenchmarkAblationConstraintWeight(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	dep := deploy.PaperGrid()
	dep.Positions = dep.Positions[:47]
	set, err := measure.Generate(dep, 22, 0.5, rng)
	if err != nil {
		b.Fatal(err)
	}
	measure.Sparsify(set, 247, rng)
	for _, wd := range []float64{1, 10, 100} {
		b.Run(map[float64]string{1: "wD=1", 10: "wD=10", 100: "wD=100"}[wd], func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultLSSConfig(9.14)
				cfg.WD = wd
				cfg.SeedMDSMap = false
				res, err := core.SolveLSS(set, cfg, rand.New(rand.NewSource(19)))
				if err != nil {
					b.Fatal(err)
				}
				a, err := eval.Fit(res.Positions, dep.Positions)
				if err != nil {
					b.Fatal(err)
				}
				avg = a.AvgError
			}
			b.ReportMetric(avg, "avg_err_m")
		})
	}
}

// BenchmarkAblationSeeding compares random-only against MDS-MAP-seeded LSS
// (this library's robustness improvement over the paper).
func BenchmarkAblationSeeding(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	dep := deploy.PaperGrid()
	set, err := measure.Generate(dep, 15, 0.33, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		seed bool
	}{
		{"random-only", false},
		{"mdsmap-seeded", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultLSSConfig(9)
				cfg.SeedMDSMap = tc.seed
				res, err := core.SolveLSS(set, cfg, rand.New(rand.NewSource(29)))
				if err != nil {
					b.Fatal(err)
				}
				a, err := eval.Fit(res.Positions, dep.Positions)
				if err != nil {
					b.Fatal(err)
				}
				avg = a.AvgError
			}
			b.ReportMetric(avg, "avg_err_m")
		})
	}
}

// BenchmarkTrialDetect measures one fig10-style software-detector trial —
// synthesizing a noisy multi-chirp waveform and running the sliding-DFT
// detector over it — exactly as the engine's trial hot path executes it.
// allocs/op here is the steady-state per-trial allocation count the scratch
// arena is meant to hold at zero.
func BenchmarkTrialDetect(b *testing.B) {
	cfg := signal.DefaultSynth()
	cfg.NoiseStd = 700
	det := signal.DefaultDFTDetector()
	rng := rand.New(rand.NewSource(41))
	tmpl, err := cfg.Template()
	if err != nil {
		b.Fatal(err)
	}
	ws := scratch.New()
	trial := func() {
		wave := ws.Float64s(cfg.TotalLen())
		if err := cfg.GenerateInto(wave, tmpl, rng); err != nil {
			b.Fatal(err)
		}
		if hits := det.DetectIn(ws, wave); len(hits) > cfg.Chirps*4 {
			b.Fatalf("implausible hit count %d", len(hits))
		}
		ws.Release()
	}
	trial() // warm the arena so allocs/op reports the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial()
	}
}

// BenchmarkTrialLSS measures one constrained LSS town solve at a reduced
// restart/iteration budget (microbenchmark scale for CI; the full budget is
// covered by the figure benchmarks above).
func BenchmarkTrialLSS(b *testing.B) {
	cfg := core.DefaultLSSConfig(9)
	cfg.Restarts = 2
	cfg.MaxIters = 800
	benchTrialLSS(b, cfg)
}

// BenchmarkTrialLSSTown measures one trial of the lss-town-constrained
// scenario's solve at its full budget, DefaultLSSConfig(9).
func BenchmarkTrialLSSTown(b *testing.B) {
	benchTrialLSS(b, core.DefaultLSSConfig(9))
}

// BenchmarkTrialLSSFree is BenchmarkTrialLSSTown with the soft constraint
// off, DefaultLSSConfig(0): the Figure 19/22 ablation, which has no soft
// pairs and so nothing for the near list to track.
func BenchmarkTrialLSSFree(b *testing.B) {
	benchTrialLSS(b, core.DefaultLSSConfig(0))
}

func benchTrialLSS(b *testing.B, cfg core.LSSConfig) {
	rng := rand.New(rand.NewSource(43))
	dep := deploy.Town(rng)
	set, err := measure.Generate(dep, 22, measure.GaussianNoise, rng)
	if err != nil {
		b.Fatal(err)
	}
	ws := scratch.New()
	trial := func() {
		if _, err := core.SolveLSSIn(ws, set, cfg, rand.New(rand.NewSource(47))); err != nil {
			b.Fatal(err)
		}
		ws.Release()
	}
	trial() // warm the arena so allocs/op reports the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial()
	}
}

// BenchmarkTrialMultilateration measures one multilat-town trial's solve:
// anchor-based multilateration with the consistency check on, over a random
// town deployment.
func BenchmarkTrialMultilateration(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	benchMultilat(b, deploy.Town(rng), rng, core.DefaultMultilatConfig())
}

// BenchmarkTrialMultilaterationGrid measures one progressive
// multilateration solve of the 14×14 offset grid (9/10 m spacing, 19 random
// anchors, ranges within 22 m), the input locbench's core probe times at
// seed 1: its random stream first draws a town and its ranges, then the
// grid's anchors and ranges.
func BenchmarkTrialMultilaterationGrid(b *testing.B) {
	dep, rng := benchGridDeployment(b, 19)
	benchMultilat(b, dep, rng, benchProgressive())
}

// BenchmarkTrialMultilaterationDense is BenchmarkTrialMultilaterationGrid
// with 150 of the grid's 196 nodes as anchors. Its consistency checks sort
// 130 intersection points on average (46 calls, 31 of them at 100 points or
// more, at most 263), the large calls that carry most of a sparse grid
// solve's sweep work.
func BenchmarkTrialMultilaterationDense(b *testing.B) {
	dep, rng := benchGridDeployment(b, 150)
	benchMultilat(b, dep, rng, benchProgressive())
}

// benchProgressive is the paper's multilateration configuration with the
// progressive extension on.
func benchProgressive() core.MultilatConfig {
	cfg := core.DefaultMultilatConfig()
	cfg.Progressive = true
	return cfg
}

// benchMultilat draws dep's ranges within 22 m from rng and measures one
// warmed multilateration solve of them with cfg per iteration.
func benchMultilat(b *testing.B, dep *deploy.Deployment, rng *rand.Rand, cfg core.MultilatConfig) {
	set, err := measure.Generate(dep, 22, measure.GaussianNoise, rng)
	if err != nil {
		b.Fatal(err)
	}
	anchors := make(map[int]geom.Point, len(dep.Anchors))
	for _, a := range dep.Anchors {
		anchors[a] = dep.Positions[a]
	}
	ws := scratch.New()
	trial := func() {
		if _, err := core.SolveMultilaterationIn(ws, set, anchors, cfg); err != nil {
			b.Fatal(err)
		}
		ws.Release()
	}
	trial() // warm the arena so allocs/op reports the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial()
	}
}

// BenchmarkTrialGenerateGrid measures the range generation of
// BenchmarkTrialMultilaterationGrid's input: measure.Generate over the
// 14×14 offset grid with ranges within 22 m, building the measurement set
// every multilateration grid trial starts from.
func BenchmarkTrialGenerateGrid(b *testing.B) {
	dep, rng := benchGridDeployment(b, 19)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measure.Generate(dep, 22, measure.GaussianNoise, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGridDeployment returns the 14×14 offset grid (9/10 m spacing) with
// the given number of random anchors, and the random stream positioned where
// locbench's core probe at seed 1 draws the grid's ranges when anchors is
// 19: after a town and its ranges, then the grid's anchors.
func benchGridDeployment(b *testing.B, anchors int) (*deploy.Deployment, *rand.Rand) {
	rng := rand.New(rand.NewSource(1))
	if _, err := measure.Generate(deploy.Town(rng), 22, measure.GaussianNoise, rng); err != nil {
		b.Fatal(err)
	}
	dep, err := deploy.OffsetGrid(14, 14, 9, 10)
	if err != nil {
		b.Fatal(err)
	}
	if err := dep.ChooseRandomAnchors(anchors, rng); err != nil {
		b.Fatal(err)
	}
	return dep, rng
}

// BenchmarkShardMultilatGrid measures one warmed 8-trial shard of the
// multilat-grid 14×14 scenario through engine.Runner on one worker: each
// trial's deployment, ranges and progressive solve plus the shard's
// aggregation. B/op and allocs/op are the whole shard's.
func BenchmarkShardMultilatGrid(b *testing.B) { benchShard(b, engine.LargeGrid(14, 14)) }

// BenchmarkShardMobility is BenchmarkShardMultilatGrid for the
// mobility-waypoint scenario at its default 1 m/s over a 4 s epoch.
func BenchmarkShardMobility(b *testing.B) { benchShard(b, engine.MobilityWaypoint(1, 4)) }

func benchShard(b *testing.B, s engine.Scenario) {
	r, err := engine.NewRunner(engine.Config{Workers: 1, Trials: 8, ShardSize: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		if _, err := r.Run(s); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the shard arena so allocs/op reports the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkLSSSolverScaling measures raw solver cost versus network size on
// complete noisy graphs (library performance, not a paper figure).
func BenchmarkLSSSolverScaling(b *testing.B) {
	for _, n := range []int{16, 36, 64} {
		b.Run(map[int]string{16: "n=16", 36: "n=36", 64: "n=64"}[n], func(b *testing.B) {
			rng := rand.New(rand.NewSource(31))
			side := int(math.Sqrt(float64(n)))
			dep, err := deploy.OffsetGrid(side, side, 9, 10)
			if err != nil {
				b.Fatal(err)
			}
			set, err := measure.Generate(dep, 1000, 0.33, rng)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.DefaultLSSConfig(0)
			cfg.Restarts = 2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveLSS(set, cfg, rand.New(rand.NewSource(37))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
