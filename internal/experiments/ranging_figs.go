package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"resilientloc/internal/acoustics"
	"resilientloc/internal/deploy"
	"resilientloc/internal/engine"
	"resilientloc/internal/engine/params"
	"resilientloc/internal/measure"
	"resilientloc/internal/ranging"
	"resilientloc/internal/signal"
	"resilientloc/internal/stats"
)

// fig02Campaign reproduces Figure 2: baseline acoustic ranging
// on a 60-node urban deployment, distances up to 30 m. The paper's plot
// shows many >1 m errors, predominantly underestimates from echoes and
// noise picked up before the true chirp.
func fig02Campaign(int64, params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig02",
		title: "Baseline ranging errors, urban 60-node deployment (≤30 m)",
		claim: "many measurements with >1 m error; most large errors are " +
			"underestimates from echoes/noise detected before the chirp",
	}, func(t *engine.T) error {
		dep, err := engine.UrbanDeployment(t.RNG)
		if err != nil {
			return err
		}
		svc, err := ranging.NewService(ranging.BaselineConfig(acoustics.Urban()), dep, t.RNG)
		if err != nil {
			return err
		}
		raw, err := svc.Campaign(1, 30)
		if err != nil {
			return err
		}
		errs := raw.SignedErrors(dep)
		if err := recordErrorStats(t, errs); err != nil {
			return err
		}
		return recordHistogram(t, "error histogram (m, count)", errs, -12, 12, 24)
	})
}

// fig04Campaign reproduces Figure 4: the baseline service with median
// filtering over up to five repeated measurements per pair, which removes
// most uncorrelated large errors.
func fig04Campaign(int64, params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig04",
		title: "Baseline ranging with median filtering of ≤5 measurements, urban",
		claim: "median filtering visibly thins the large-error population of Figure 2",
		regression: regression{"raw fraction |error| > 1 m", "filtered fraction |error| > 1 m",
			"REGRESSION: filtering increased the large-error fraction"},
	}, func(t *engine.T) error {
		dep, err := engine.UrbanDeployment(t.RNG)
		if err != nil {
			return err
		}
		svc, err := ranging.NewService(ranging.BaselineConfig(acoustics.Urban()), dep, t.RNG)
		if err != nil {
			return err
		}
		raw, err := svc.Campaign(5, 30)
		if err != nil {
			return err
		}

		rawErrs := raw.SignedErrors(dep)
		rawSummary, err := stats.Summarize(rawErrs)
		if err != nil {
			return err
		}

		directed := raw.Filter()
		var filtErrs []float64
		for k, d := range directed {
			truth := dep.Positions[k[0]].Dist(dep.Positions[k[1]])
			filtErrs = append(filtErrs, d-truth)
		}
		filtSummary, err := stats.Summarize(filtErrs)
		if err != nil {
			return err
		}

		t.Record("raw fraction |error| > 1 m", rawSummary.Frac1m)
		t.Record("filtered fraction |error| > 1 m", filtSummary.Frac1m)
		t.Record("raw median |error|", rawSummary.AbsMed)
		t.Record("filtered median |error|", filtSummary.AbsMed)
		return nil
	})
}

// grassCampaign runs the refined-service campaign of Section 3.6 and
// returns both the raw readings and the deployment.
func grassCampaign(rng *rand.Rand, rounds int) (*measure.Raw, *deploy.Deployment, error) {
	dep := engine.GrassGrid46()
	svc, err := ranging.NewService(ranging.DefaultConfig(acoustics.Grass()), dep, rng)
	if err != nil {
		return nil, nil, err
	}
	raw, err := svc.Campaign(rounds, 21)
	if err != nil {
		return nil, nil, err
	}
	return raw, dep, nil
}

// fig06Campaign reproduces Figure 6: the refined service's
// error histogram on the 46-node grass grid — a zero-mean ±30 cm core with
// rare large-magnitude outliers (paper: up to 11 m).
func fig06Campaign(int64, params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig06",
		title: "Refined ranging error histogram, 46-node grass grid (≤20 m)",
		claim: "approximately zero-mean bell-shaped core within ±30 cm; " +
			"several large-magnitude outliers (up to 11 m); smaller errors cluster right",
	}, func(t *engine.T) error {
		raw, dep, err := grassCampaign(t.RNG, 3)
		if err != nil {
			return err
		}
		errs := raw.SignedErrors(dep)
		if err := recordErrorStats(t, errs); err != nil {
			return err
		}
		var core int
		for _, e := range errs {
			if math.Abs(e) <= 0.3 {
				core++
			}
		}
		t.Record("fraction within ±30 cm", float64(core)/float64(len(errs)))
		return recordHistogram(t, "error histogram (m, count)", errs, -3, 3, 30)
	})
}

// fig07Campaign reproduces Figure 7: restricting to pairs with
// consistent bidirectional measurements removes most large-magnitude
// outliers ("most of these errors are eliminated with the bidirectional
// consistency check").
func fig07Campaign(int64, params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig07",
		title: "Error histogram restricted to bidirectional-consistent pairs",
		claim: "the bidirectional consistency check eliminates most large-magnitude errors",
	}, func(t *engine.T) error {
		raw, dep, err := grassCampaign(t.RNG, 3)
		if err != nil {
			return err
		}
		allErrs := raw.SignedErrors(dep)
		allSummary, err := stats.Summarize(allErrs)
		if err != nil {
			return err
		}

		set, err := measure.Merge(dep.N(), raw.Filter(), true)
		if err != nil {
			return err
		}
		bidirErrs, err := set.Errors(dep)
		if err != nil {
			return err
		}
		bidirSummary, err := stats.Summarize(bidirErrs)
		if err != nil {
			return err
		}

		t.Record("all measurements", float64(allSummary.N))
		t.Record("bidirectional pairs", float64(bidirSummary.N))
		t.Record("all fraction |error| > 1 m", allSummary.Frac1m)
		t.Record("bidirectional fraction |error| > 1 m", bidirSummary.Frac1m)
		t.Record("all max |error|", math.Max(math.Abs(allSummary.Min), math.Abs(allSummary.Max)))
		t.Record("bidirectional max |error|", math.Max(math.Abs(bidirSummary.Min), math.Abs(bidirSummary.Max)))
		return nil
	})
}

// fig08Campaign reproduces Figure 8: measured and filtered distance
// estimates versus actual distance — large-magnitude errors grow more
// frequent at longer range.
func fig08Campaign(int64, params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig08",
		title: "Ranging error versus actual distance, grass grid",
		claim: "large-magnitude errors are more common at longer distances",
	}, func(t *engine.T) error {
		raw, dep, err := grassCampaign(t.RNG, 3)
		if err != nil {
			return err
		}

		// Bucket raw errors by true distance (2 m bins to 20 m).
		const binW = 2.0
		type bucket struct {
			n, large int
			absSum   float64
		}
		buckets := make([]bucket, 10)
		for _, k := range raw.DirectedPairs() {
			truth := dep.Positions[k[0]].Dist(dep.Positions[k[1]])
			bi := int(truth / binW)
			if bi >= len(buckets) {
				continue
			}
			for _, d := range raw.Readings(k[0], k[1]) {
				e := d - truth
				buckets[bi].n++
				buckets[bi].absSum += math.Abs(e)
				if math.Abs(e) > 0.5 {
					buckets[bi].large++
				}
			}
		}
		var xs, fracs, meanAbs []float64
		for i, b := range buckets {
			if b.n == 0 {
				continue
			}
			xs = append(xs, (float64(i)+0.5)*binW)
			fracs = append(fracs, float64(b.large)/float64(b.n))
			meanAbs = append(meanAbs, b.absSum/float64(b.n))
		}

		recordSeries(t, "fraction |error|>0.5m per 2m bin", xs, fracs)
		recordSeries(t, "mean |error| per 2m bin (m)", xs, meanAbs)
		if len(fracs) >= 2 {
			t.Record("large-error fraction, nearest bin", fracs[0])
			t.Record("large-error fraction, farthest bin", fracs[len(fracs)-1])
		}
		return nil
	})
}

// fig10Campaign reproduces Figure 10: the sliding-DFT software tone
// detector applied to a clean and a noisy four-chirp signal. The paper's
// noisy run detects three of the four chirps with no false positives.
func fig10Campaign(int64, params.Map) engine.Campaign[*Result] {
	c := singleTrial(figure{
		id:    "fig10",
		title: "Sliding-DFT software tone detection, clean vs noisy signal",
		claim: "noisy case: three of the four chirps are correctly detected, with no false positives",
	}, func(t *engine.T) error {
		det := signal.DefaultDFTDetector()

		count := func(noise float64) (matched, falsePos int, err error) {
			cfg := signal.DefaultSynth()
			cfg.NoiseStd = noise
			wave, err := synthWave(t, cfg)
			if err != nil {
				return 0, 0, err
			}
			hits := det.DetectIn(t.Scratch(), wave)
			starts := cfg.ChirpStarts()
			for _, h := range hits {
				ok := false
				for _, s := range starts {
					if h >= s-signal.SlidingDFTWindow && h <= s+cfg.ChirpLen {
						ok = true
						break
					}
				}
				if ok {
					matched++
				} else {
					falsePos++
				}
			}
			return matched, falsePos, nil
		}

		cleanHit, cleanFP, err := count(0)
		if err != nil {
			return err
		}
		noisyHit, noisyFP, err := count(700)
		if err != nil {
			return err
		}

		t.Record("clean chirps detected (of 4)", float64(cleanHit))
		t.Record("clean false positives", float64(cleanFP))
		t.Record("noisy chirps detected (of 4)", float64(noisyHit))
		t.Record("noisy false positives", float64(noisyFP))
		return nil
	})
	// The chirp template depends only on the synth layout — not the noise
	// level or trial RNG — so it is precomputed once per shard.
	c.Scenario.ShardInit = func() any {
		tmpl, err := signal.DefaultSynth().Template()
		if err != nil {
			return nil
		}
		return tmpl
	}
	return c
}

// synthWave synthesizes one waveform for a trial, reusing the shard's
// precomputed chirp template and the trial arena when available and falling
// back to plain Generate otherwise. Both paths consume the RNG identically
// and produce bit-identical samples.
func synthWave(t *engine.T, cfg signal.SynthConfig) ([]float64, error) {
	tmpl, _ := t.ShardData.([]float64)
	if tmpl == nil || len(tmpl) != cfg.TotalLen() {
		return cfg.Generate(t.RNG)
	}
	wave := t.Scratch().Float64s(cfg.TotalLen())
	if err := cfg.GenerateInto(wave, tmpl, t.RNG); err != nil {
		return nil, err
	}
	return wave, nil
}

// maxRangeCampaign reproduces the Section 3.6.2 maximum-range analysis:
// detection success rate versus distance for grass and pavement at the
// lowest and the calibrated detection thresholds, with p's "rounds"
// measurement attempts per sweep point.
//
// maxRangeCampaign expresses the whole sweep as ONE campaign: trial t
// measures sweep point (environment t/18, threshold 1+(t/9)%2, distance
// t%9), so all 36 points run concurrently on the engine, each from its own
// trial stream.
func maxRangeCampaign(_ int64, p params.Map) engine.Campaign[*Result] {
	rounds := p.Int("rounds")
	distances := engine.DefaultMaxRangeDistances()
	envs := []acoustics.Environment{acoustics.Grass(), acoustics.Pavement()}
	thresholds := []uint8{1, 2}
	nTrials := len(envs) * len(thresholds) * len(distances)
	point := func(trial int) (acoustics.Environment, uint8, float64) {
		block := trial / len(distances)
		return envs[block/len(thresholds)], thresholds[block%len(thresholds)], distances[trial%len(distances)]
	}
	return engine.Campaign[*Result]{
		Scenario: engine.Scenario{
			Name:      "maxrange",
			Trials:    nTrials,
			MaxTrials: nTrials,
			Run: func(t *engine.T) error {
				env, thr, d := point(t.Trial)
				rate, err := engine.MaxRangePoint(env, thr, d, rounds, t.RNG)
				if err != nil {
					return err
				}
				t.Record(trialName("success_rate", t.Trial), rate)
				return nil
			},
		},
		// One trial per sweep point gets its own worker; the figure reads
		// only per-trial values, which are shard-size independent. Trial
		// indices encode sweep points, so the count is structural.
		ShardSize:   1,
		FixedTrials: true,
		Finalize: func(rep *engine.Report) (*Result, error) {
			rates, err := trialValues(rep, "success_rate", 0, nTrials)
			if err != nil {
				return nil, err
			}
			r := &Result{
				ID:    "maxrange",
				Title: "Detection success versus distance (grass vs pavement, threshold sweep)",
				PaperClaim: "grass: no detection beyond ~20 m, ~80-85% at 10 m; pavement: most chirps " +
					"to 35 m, some at 50 m, reliable ~25 m; higher thresholds cost little range",
			}
			for block := 0; block*len(distances) < nTrials; block++ {
				env, thr, _ := point(block * len(distances))
				pts := make([]SeriesPoint, len(distances))
				for i, d := range distances {
					pts[i] = SeriesPoint{X: d, Y: rates[block*len(distances)+i]}
				}
				r.Series = append(r.Series, Series{
					Name:   fmt.Sprintf("%s T=%d success rate", env.Name, thr),
					Points: pts,
				})
			}
			// Headline metrics: success at the paper's reliability anchors.
			for _, s := range r.Series {
				for _, p := range s.Points {
					switch {
					case s.Name == "grass T=2 success rate" && p.X == 10:
						r.Add("grass @10m (T=2)", p.Y, "")
					case s.Name == "grass T=2 success rate" && p.X == 25:
						r.Add("grass @25m (T=2)", p.Y, "")
					case s.Name == "pavement T=2 success rate" && p.X == 25:
						r.Add("pavement @25m (T=2)", p.Y, "")
					case s.Name == "pavement T=1 success rate" && p.X == 50:
						r.Add("pavement @50m (T=1)", p.Y, "")
					}
				}
			}
			return r, nil
		},
	}
}
