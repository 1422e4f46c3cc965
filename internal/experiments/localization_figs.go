package experiments

import (
	"math/rand"

	"resilientloc/internal/acoustics"
	"resilientloc/internal/core"
	"resilientloc/internal/deploy"
	"resilientloc/internal/engine"
	"resilientloc/internal/engine/params"
	"resilientloc/internal/eval"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/ranging"
	"resilientloc/internal/scratch"
	"resilientloc/internal/stats"
)

// gridFieldSet generates the paper's grass-grid field measurement set by
// running the full ranging simulation: 46 nodes, refined service, 3 rounds,
// median filtering, bidirectional-tolerant merge. The merged set is then
// sparsified to 124 undirected pairs: the paper reports "only 247 total
// distance measurements between pairs ... for the 47 nodes", i.e. directed
// readings, ≈124 undirected pairs (that density also matches its reported
// 1.47 anchors per node) — our simulated channel yields roughly twice the
// paper's field success rate, so we subsample to the paper's density.
func gridFieldSet(seed int64) (*measure.Set, *deploy.Deployment, error) {
	rng := rand.New(rand.NewSource(seed))
	dep := engine.GrassGrid46()
	svc, err := ranging.NewService(ranging.DefaultConfig(acoustics.Grass()), dep, rng)
	if err != nil {
		return nil, nil, err
	}
	set, err := svc.CampaignSet(3, 21)
	if err != nil {
		return nil, nil, err
	}
	measure.Sparsify(set, 124, rng)
	return set, dep, nil
}

// gridAnchors picks the paper's 13 random anchors from the grid.
func gridAnchors(dep *deploy.Deployment, seed int64) (map[int]geom.Point, error) {
	rng := rand.New(rand.NewSource(seed))
	if err := dep.ChooseRandomAnchors(13, rng); err != nil {
		return nil, err
	}
	anchors := make(map[int]geom.Point, len(dep.Anchors))
	for _, a := range dep.Anchors {
		anchors[a] = dep.Positions[a]
	}
	return anchors, nil
}

// fig11Campaign reproduces Figure 11: a constructed scenario
// where one anchor is nearly collinear with another relative to the node
// being localized, so small distance errors displace its intersection
// points far from the true cluster and the consistency check drops it.
func fig11Campaign(int64, params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig11",
		title: "Intersection consistency check versus a bad near-collinear anchor",
		claim: "the anchor with no intersection points near the cluster is discarded",
		regression: regression{"error without consistency check", "error with consistency check",
			"REGRESSION: the consistency check did not improve the fix"},
	}, func(t *engine.T) error {
		truth := geom.Pt(10, 9)
		anchorPos := []geom.Point{
			geom.Pt(0, 0), geom.Pt(21, 2), geom.Pt(3, 20), geom.Pt(19, 17),
			geom.Pt(45, 41), // the rogue: nearly collinear with the node
		}
		const rogueIdx = 4
		node := len(anchorPos)
		set, err := measure.NewSet(len(anchorPos) + 1)
		if err != nil {
			return err
		}
		anchors := make(map[int]geom.Point, len(anchorPos))
		for i, a := range anchorPos {
			anchors[i] = a
			d := truth.Dist(a) + t.RNG.NormFloat64()*0.2
			if i == rogueIdx {
				d = truth.Dist(a) + 9 // gross overestimate on the rogue anchor
			}
			if err := set.Add(node, i, d, 1); err != nil {
				return err
			}
		}

		withCheck := core.DefaultMultilatConfig()
		noCheck := core.DefaultMultilatConfig()
		noCheck.ConsistencyRadius = 0

		resNo, err := core.SolveMultilaterationIn(t.Scratch(), set, anchors, noCheck)
		if err != nil {
			return err
		}
		resYes, err := core.SolveMultilaterationIn(t.Scratch(), set, anchors, withCheck)
		if err != nil {
			return err
		}

		if p, ok := resNo.Positions[node]; ok {
			t.Record("error without consistency check", p.Dist(truth))
		}
		if p, ok := resYes.Positions[node]; ok {
			t.Record("error with consistency check", p.Dist(truth))
		}
		return nil
	})
}

// fig12Campaign reproduces Figure 12: 15 nodes (5 loudspeaker
// anchors) in a 25×25 m parking lot, one-way measurements, median filter.
// Paper: average localization error 0.868 m.
func fig12Campaign(int64, params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig12",
		title: "Multilateration, 15 nodes (5 anchors), 25×25 m parking lot",
		claim: "average localization error 0.868 m",
	}, func(t *engine.T) error {
		dep := deploy.ParkingLot()
		cfg := ranging.DefaultConfig(acoustics.Pavement())
		// The parking-lot experiment predates the chirp pattern ("This
		// experiment was performed before we had incorporated the sound pattern
		// into the ranging service. As a result, individual range measurements
		// carried larger error magnitudes."): use a short pattern and extra
		// device jitter.
		cfg.Pattern.Chirps = 5
		cfg.Pattern.RandomDelay = 0
		cfg.DeviceJitterStd = 0.55
		cfg.CalibrationBias = 0.15 // pre-calibration constant offset (§3.6)
		svc, err := ranging.NewService(cfg, dep, t.RNG)
		if err != nil {
			return err
		}
		// One-way: only anchors have loudspeakers; measure anchor → node and
		// record under the node so multilateration can use it.
		raw, err := measure.NewRaw(dep.N())
		if err != nil {
			return err
		}
		for round := 0; round < 5; round++ {
			for _, a := range dep.Anchors {
				for _, i := range dep.NonAnchors() {
					if d, ok := svc.MeasurePair(a, i); ok {
						if err := raw.Add(a, i, d); err != nil {
							return err
						}
					}
				}
			}
		}
		set, err := measure.Merge(dep.N(), raw.Filter(), false)
		if err != nil {
			return err
		}
		anchors := make(map[int]geom.Point)
		for _, a := range dep.Anchors {
			anchors[a] = dep.Positions[a]
		}
		res, err := core.SolveMultilaterationIn(t.Scratch(), set, anchors, core.DefaultMultilatConfig())
		if err != nil {
			return err
		}
		t.Record("non-anchors localized", float64(len(res.Localized)))
		t.Record("of non-anchors", float64(len(dep.NonAnchors())))
		if len(res.Localized) > 0 {
			avg, worst, err := eval.AvgErrorAbsolute(res.Positions, dep.Positions)
			if err != nil {
				return err
			}
			t.Record("average localization error", avg)
			t.Record("worst localization error", worst)
		}
		return nil
	})
}

// fig14Campaign reproduces Figures 13/14: multilateration on the
// sparse grass-grid field measurements with 13 random anchors. Paper: only
// 7 of 33 non-anchors localized (20%), 1.47 anchors per node, 0.653 m
// average error for those localized.
func fig14Campaign(seed int64, _ params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig14",
		title: "Multilateration on sparse grid field measurements, 13 anchors",
		claim: "only 7 of 33 non-anchors localized (20%); 1.47 anchors per node; " +
			"0.653 m average error for the localized nodes",
	}, func(t *engine.T) error {
		set, dep, err := gridFieldSet(seed)
		if err != nil {
			return err
		}
		anchors, err := gridAnchors(dep, seed+1)
		if err != nil {
			return err
		}
		res, err := core.SolveMultilaterationIn(t.Scratch(), set, anchors, core.DefaultMultilatConfig())
		if err != nil {
			return err
		}
		t.Record("measured pairs", float64(set.Len()))
		t.Record("anchors per node", res.AvgAnchorsPerNode)
		nonAnchors := float64(dep.N() - len(anchors))
		t.Record("localized fraction", float64(len(res.Localized))/nonAnchors)
		if len(res.Localized) > 0 {
			avg, _, err := eval.AvgErrorAbsolute(res.Positions, dep.Positions)
			if err != nil {
				return err
			}
			t.Record("average error of localized", avg)
		}
		return nil
	})
}

// fig16Campaign reproduces Figures 15/16: the same sparse set
// augmented with simulated distances (N(0, 0.33 m), 22 m cutoff), which
// raises anchor availability to 3.84 per node and localizes ~80% of nodes.
// Paper: 3.524 m average error, dominated by three badly localized nodes
// (0.9 m without them).
func fig16Campaign(seed int64, _ params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig16",
		title: "Multilateration with simulated-distance augmentation",
		claim: "~80% of nodes localized; 3.84 anchors per node; 3.524 m average " +
			"(0.9 m without the three worst nodes)",
	}, func(t *engine.T) error {
		set, dep, err := gridFieldSet(seed)
		if err != nil {
			return err
		}
		anchors, err := gridAnchors(dep, seed+1)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed + 2))
		added, err := measure.Augment(set, dep, 22, measure.GaussianNoise, 1<<30, rng)
		if err != nil {
			return err
		}
		// The paper omitted the intersection consistency check in this
		// simulation (its footnote 5).
		cfg := core.DefaultMultilatConfig()
		cfg.ConsistencyRadius = 0
		res, err := core.SolveMultilaterationIn(t.Scratch(), set, anchors, cfg)
		if err != nil {
			return err
		}
		t.Record("simulated distances added", float64(added))
		t.Record("anchors per node", res.AvgAnchorsPerNode)
		nonAnchors := float64(dep.N() - len(anchors))
		t.Record("localized fraction", float64(len(res.Localized))/nonAnchors)
		if len(res.Localized) > 2 {
			avg, worst, err := eval.AvgErrorAbsolute(res.Positions, dep.Positions)
			if err != nil {
				return err
			}
			t.Record("average error of localized", avg)
			t.Record("worst error", worst)
			var errs []float64
			for i, p := range res.Positions {
				errs = append(errs, p.Dist(dep.Positions[i]))
			}
			trimmed, err := eval.TrimmedAvg(errs, 3)
			if err != nil {
				return err
			}
			t.Record("average without worst 3", trimmed)
		}
		return nil
	})
}

// lssGridExperiment runs centralized LSS on the grass-grid field set with
// the given dmin, using paper-faithful random seeding.
func lssGridExperiment(ws *scratch.Arena, seed int64, dmin float64) (*eval.Alignment, *core.LSSResult, *measure.Set, error) {
	set, dep, err := gridFieldSet(seed)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := core.DefaultLSSConfig(dmin)
	cfg.SeedMDSMap = false
	// The paper ran this minimization for hours; give the random-seeded
	// solver a correspondingly generous restart budget (~10 s of compute).
	// Note the 124-pair field graph is typically *disconnected*: classical
	// MDS cannot even start, and only the soft constraint ties the
	// components into a coherent layout.
	cfg.Restarts = 150
	cfg.MaxIters = 6000
	res, err := core.SolveLSSIn(ws, set, cfg, rand.New(rand.NewSource(seed+10)))
	if err != nil {
		return nil, nil, nil, err
	}
	a, err := eval.Fit(res.Positions, dep.Positions)
	if err != nil {
		return nil, nil, nil, err
	}
	return a, res, set, nil
}

// fig18Campaign reproduces Figures 17/18: centralized LSS with the
// 9.14 m minimum-spacing soft constraint (wij=1, wD=10) on the grass-grid
// field measurements. Paper: 2.229 m average error (1.5 m without the worst
// five nodes).
func fig18Campaign(seed int64, _ params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig18",
		title: "Centralized LSS with minimum-spacing soft constraint, grass grid",
		claim: "average localization error 2.229 m; 1.5 m without the largest five errors",
	}, func(t *engine.T) error {
		a, res, set, err := lssGridExperiment(t.Scratch(), seed, 9.14)
		if err != nil {
			return err
		}
		t.Record("measured pairs", float64(set.Len()))
		t.Record("average error", a.AvgError)
		trimmed, err := eval.TrimmedAvg(a.Errors, 5)
		if err != nil {
			return err
		}
		t.Record("average without worst 5", trimmed)
		t.Record("final objective E", res.Error)
		return nil
	})
}

// fig19Campaign reproduces Figure 19: the same run without the
// soft constraint fails to converge anywhere near the actual positions.
// Paper: 16.609 m average error after a full day of minimization.
func fig19Campaign(seed int64, _ params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig19",
		title: "Centralized LSS without the soft constraint, grass grid",
		claim: "fails to converge: 16.609 m average error after a full day",
	}, func(t *engine.T) error {
		a, res, _, err := lssGridExperiment(t.Scratch(), seed, 0)
		if err != nil {
			return err
		}
		t.Record("average error", a.AvgError)
		t.Record("final objective E", res.Error)
		return nil
	})
}

// fig20Campaign reproduces Figure 20: multilateration on the town
// scenario with 18 anchors. Paper: 35 nodes localized, 0.950 m average.
func fig20Campaign(int64, params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig20",
		title: "Multilateration on the town scenario (59 nodes, 18 anchors)",
		claim: "35 nodes localized with 0.950 m average error",
	}, func(t *engine.T) error {
		dep, set, err := engine.TownSet(t.Scratch(), t.RNG)
		if err != nil {
			return err
		}
		anchors := make(map[int]geom.Point)
		for _, a := range dep.Anchors {
			anchors[a] = dep.Positions[a]
		}
		// Footnote 5: intersection consistency checking omitted here.
		cfg := core.DefaultMultilatConfig()
		cfg.ConsistencyRadius = 0
		res, err := core.SolveMultilaterationIn(t.Scratch(), set, anchors, cfg)
		if err != nil {
			return err
		}
		t.Record("pairs within 22 m", float64(set.Len()))
		t.Record("non-anchors localized", float64(len(res.Localized)))
		t.Record("of non-anchors", float64(len(dep.NonAnchors())))
		if len(res.Localized) > 0 {
			avg, _, err := eval.AvgErrorAbsolute(res.Positions, dep.Positions)
			if err != nil {
				return err
			}
			t.Record("average error of localized", avg)
		}
		return nil
	})
}

// townDescent runs one independent single fixed-step descent (the paper's
// Eq. (1) optimizer, no restarts) on the town scenario, returning the
// descent's average localization error and its objective history padded to
// maxIters+1 points (an early-converged history is extended with its final
// value so pointwise ensemble means are defined at every iteration). Every
// descent shares the one town drawn from seed and starts from its own trial
// stream.
func townDescent(t *engine.T, seed int64, dmin float64, maxIters int) (float64, []float64, error) {
	dep, set, err := engine.TownSet(t.Scratch(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, nil, err
	}
	cfg := core.DefaultLSSConfig(dmin)
	cfg.Mode = core.StepFixed
	cfg.Step = 0.002
	cfg.Restarts = 0
	cfg.MaxIters = maxIters
	cfg.SeedMDSMap = false
	// Compact initialization, matching the paper's Figure 23 starting
	// objective: the constraint then acts as an unfolding force.
	cfg.InitSpread = 20
	res, err := core.SolveLSSIn(t.Scratch(), set, cfg, t.RNG)
	if err != nil {
		return 0, nil, err
	}
	a, err := eval.Fit(res.Positions, dep.Positions)
	if err != nil {
		return 0, nil, err
	}
	h := res.History
	padded := make([]float64, maxIters+1)
	for i := range padded {
		v := h[len(h)-1]
		if i < len(h) {
			v = h[i]
		}
		padded[i] = v
	}
	return a.AvgError, padded, nil
}

// townFullSolver runs the library's full adaptive solver (with restarts) on
// the town scenario.
func townFullSolver(ws *scratch.Arena, seed int64, dmin float64) (*eval.Alignment, *core.LSSResult, error) {
	dep, set, err := engine.TownSet(ws, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultLSSConfig(dmin)
	res, err := core.SolveLSSIn(ws, set, cfg, rand.New(rand.NewSource(seed+20)))
	if err != nil {
		return nil, nil, err
	}
	a, err := eval.Fit(res.Positions, dep.Positions)
	if err != nil {
		return nil, nil, err
	}
	return a, res, nil
}

// fig21Campaign reproduces Figure 21: centralized LSS with the
// 9 m constraint on the town scenario, no anchors used. Paper: all nodes
// localized, 0.548 m average error.
func fig21Campaign(seed int64, _ params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig21",
		title: "Centralized LSS with constraint on the town scenario (no anchors)",
		claim: "all nodes localized with 0.548 m average error",
	}, func(t *engine.T) error {
		a, res, err := townFullSolver(t.Scratch(), seed, 9)
		if err != nil {
			return err
		}
		t.Record("average error", a.AvgError)
		t.Record("max error", a.MaxError)
		t.Record("final objective E", res.Error)
		return nil
	})
}

// fig22Campaign examines Figure 22: without the constraint the
// paper's minimization left most nodes mislocalized (13.606 m average).
// That failure is an optimizer artifact on this *dense* scenario: our full
// restart solver converges either way, so we report both the full-solver
// result (a documented deviation) and the paper-equivalent statistic — the
// mean error of independent single fixed-step descents, where the
// unconstrained objective routinely strands descents in folds.
//
// fig22Campaign is one campaign over 17 concurrent trials: descents 0–7 run
// constrained (dmin 9 m), descents 8–15 unconstrained, each an independent
// trial, and trial 16 is the full restart solver (which seeds its own
// generator, seed+20, as fig21 does).
func fig22Campaign(seed int64, _ params.Map) engine.Campaign[*Result] {
	const nDescents, iters = 8, 6000
	const nTrials = 2*nDescents + 1
	return engine.Campaign[*Result]{
		Scenario: engine.Scenario{
			Name:      "fig22",
			Trials:    nTrials,
			MaxTrials: nTrials,
			Run: func(t *engine.T) error {
				switch {
				case t.Trial < nDescents: // constrained descent
					avg, _, err := townDescent(t, seed, 9, iters)
					if err != nil {
						return err
					}
					t.Record(trialName("avg_error_m", t.Trial), avg)
				case t.Trial < 2*nDescents: // unconstrained descent
					avg, _, err := townDescent(t, seed, 0, iters)
					if err != nil {
						return err
					}
					t.Record(trialName("avg_error_m", t.Trial), avg)
				default: // full restart solver
					aFull, _, err := townFullSolver(t.Scratch(), seed, 0)
					if err != nil {
						return err
					}
					t.Record(trialName("full_avg_error_m", t.Trial), aFull.AvgError)
				}
				return nil
			},
		},
		// One descent per worker; the figure reads only per-trial values,
		// which are shard-size independent. Trial indices encode ensemble
		// membership, so the count is structural.
		ShardSize:   1,
		FixedTrials: true,
		Finalize: func(rep *engine.Report) (*Result, error) {
			errs, err := trialValues(rep, "avg_error_m", 0, 2*nDescents)
			if err != nil {
				return nil, err
			}
			full, err := trialValues(rep, "full_avg_error_m", 2*nDescents, nTrials)
			if err != nil {
				return nil, err
			}
			meanWith, err := stats.Mean(errs[:nDescents])
			if err != nil {
				return nil, err
			}
			meanWithout, err := stats.Mean(errs[nDescents : 2*nDescents])
			if err != nil {
				return nil, err
			}
			fullAvg := full[0]
			r := &Result{
				ID:         "fig22",
				Title:      "Centralized LSS without constraint on the town scenario",
				PaperClaim: "most nodes not properly localized: 13.606 m average error",
			}
			r.Add("full-solver average error (deviation)", fullAvg, "m")
			r.Add("mean single-descent error, no constraint", meanWithout, "m")
			r.Add("mean single-descent error, constrained", meanWith, "m")
			if meanWithout <= meanWith {
				r.Notes = "REGRESSION: unconstrained descents did not fare worse"
			} else {
				r.Notes = "at the paper's fixed-step single-descent budget, unconstrained descents land near the " +
					"paper's 13.6 m while constrained ones land lower; our full restart solver converges either way " +
					"on this dense scenario (documented deviation — on sparse data, Figs 18/19, the constraint is " +
					"decisive regardless of budget)"
			}
			return r, nil
		},
	}
}

// fig23Campaign reproduces Figure 23: the objective versus epoch
// for constrained and unconstrained town minimizations under the paper's
// fixed-step rule, averaged over an ensemble of descents. The constrained
// objective includes extra non-negative penalty terms (so its floor is
// higher), yet it reaches its floor far sooner and its layouts are better.
//
// fig23Campaign runs both ensembles as one campaign over 16 concurrent
// trials: descents 0–7 constrained, 8–15 unconstrained, each recording its
// padded objective history at the plotted epochs.
func fig23Campaign(seed int64, _ params.Map) engine.Campaign[*Result] {
	const nDescents, iters = 8, 2500
	const epoch = 50 // gradient steps per plotted epoch
	return engine.Campaign[*Result]{
		Scenario: engine.Scenario{
			Name:      "fig23",
			Trials:    2 * nDescents,
			MaxTrials: 2 * nDescents,
			Run: func(t *engine.T) error {
				dmin := 9.0
				if t.Trial >= nDescents {
					dmin = 0
				}
				_, hist, err := townDescent(t, seed, dmin, iters)
				if err != nil {
					return err
				}
				plotted := make([]float64, 0, iters/epoch+1)
				for i := 0; i < len(hist); i += epoch {
					plotted = append(plotted, hist[i])
				}
				t.RecordSeries(trialName("E", t.Trial), plotted)
				return nil
			},
		},
		ShardSize:   1,
		FixedTrials: true,
		Finalize: func(rep *engine.Report) (*Result, error) {
			rows, err := trialRows(rep, "E", 0, 2*nDescents)
			if err != nil {
				return nil, err
			}
			// Pointwise ensemble mean per plotted epoch, accumulated in
			// trial order exactly as the serial generator did.
			meanHist := func(rows [][]float64) []float64 {
				mean := make([]float64, len(rows[0]))
				for _, hist := range rows {
					for i, v := range hist {
						mean[i] += v / float64(nDescents)
					}
				}
				return mean
			}
			withHist := meanHist(rows[:nDescents])
			withoutHist := meanHist(rows[nDescents:])
			sample := func(h []float64) []SeriesPoint {
				pts := make([]SeriesPoint, len(h))
				for i, y := range h {
					pts[i] = SeriesPoint{X: float64(i), Y: y}
				}
				return pts
			}
			r := &Result{
				ID:         "fig23",
				Title:      "Mean objective vs epoch, with and without the soft constraint",
				PaperClaim: "the soft constraint greatly reduces the time to reach a global minimum",
			}
			r.Series = append(r.Series,
				Series{Name: "mean E with constraint", Points: sample(withHist)},
				Series{Name: "mean E without constraint", Points: sample(withoutHist)},
			)
			r.Add("final mean E with constraint", withHist[len(withHist)-1], "")
			r.Add("final mean E without constraint", withoutHist[len(withoutHist)-1], "")
			r.Notes = "the two objectives are not directly comparable (the constrained E carries extra " +
				"non-negative penalty terms); the paper's speed claim shows up as layout quality — see the " +
				"single-descent error means in fig22 — while both mean objectives plateau far above their " +
				"global minima at this budget, i.e. the unconstrained minimization 'fails to converge' as in Figure 19/22"
			return r, nil
		},
	}
}
