package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"resilientloc/internal/acoustics"
	"resilientloc/internal/core"
	"resilientloc/internal/deploy"
	"resilientloc/internal/eval"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/ranging"
	"resilientloc/internal/scratch"
	"resilientloc/internal/stats"
)

// This file is the scenario library: declarative Monte Carlo workloads over
// the paper's ranging/localization pipeline. The first group re-expresses
// the paper's evaluation settings (Sections 3.3, 3.6, 4.4) as engine
// scenarios; the second opens workloads the paper never ran — anchor
// dropout, ambient-noise sweeps, large-N grids — which is exactly what the
// engine exists for.

// Library returns every registered scenario in display order.
func Library() []Scenario {
	var all []Scenario
	for _, suite := range Suites() {
		all = append(all, suite.Scenarios...)
	}
	return all
}

var (
	libraryOnce  sync.Once
	libraryIndex map[string]Scenario
)

// Find returns the library scenario with the given name via a map-backed
// index built once per process.
func Find(name string) (Scenario, bool) {
	libraryOnce.Do(func() {
		lib := Library()
		libraryIndex = make(map[string]Scenario, len(lib))
		for _, s := range lib {
			libraryIndex[s.Name] = s
		}
	})
	s, ok := libraryIndex[name]
	return s, ok
}

// Suite is a named group of related scenarios, runnable together from
// cmd/scenarios.
type Suite struct {
	Name        string
	Description string
	Scenarios   []Scenario
}

// Suites returns the scenario suites in display order.
func Suites() []Suite {
	return []Suite{
		{
			Name:        "ranging",
			Description: "acoustic ranging campaigns: error distributions, detection range, noise robustness",
			Scenarios: []Scenario{
				RangingUrbanBaseline(),
				RangingGrassRefined(),
				NoiseSweep(0),
				NoiseSweep(6),
				NoiseSweep(12),
				MaxRangeScenario(acoustics.Grass(), 2, DefaultMaxRangeDistances(), 40),
				MaxRangeScenario(acoustics.Pavement(), 2, DefaultMaxRangeDistances(), 40),
			},
		},
		{
			Name:        "multilat",
			Description: "anchor-based multilateration: the town scenario, anchor dropout, large-N grids",
			Scenarios: []Scenario{
				MultilatTown(),
				AnchorDropout(6),
				AnchorDropout(12),
				LargeGrid(14, 14),
			},
		},
		{
			Name:        "lss",
			Description: "centralized least-squares scaling with the minimum-spacing constraint",
			Scenarios: []Scenario{
				LSSTownConstrained(),
			},
		},
	}
}

// FindSuite returns the named suite.
func FindSuite(name string) (Suite, bool) {
	for _, s := range Suites() {
		if s.Name == name {
			return s, true
		}
	}
	return Suite{}, false
}

// recordSignedErrors reports every directed reading's measured-minus-true
// error and the per-trial robust summaries.
func recordSignedErrors(t *T, raw *measure.Raw, dep *deploy.Deployment) error {
	errs := raw.SignedErrors(dep)
	for _, e := range errs {
		t.Record("signed_error_m", e)
	}
	if len(errs) == 0 {
		return fmt.Errorf("campaign produced no readings")
	}
	med, err := stats.MedianAbs(errs)
	if err != nil {
		return err
	}
	var large, core30 int
	for _, e := range errs {
		if math.Abs(e) > 1 {
			large++
		}
		if math.Abs(e) <= 0.3 {
			core30++
		}
	}
	t.Record("median_abs_error_m", med)
	t.Record("frac_gt_1m", float64(large)/float64(len(errs)))
	t.Record("frac_within_30cm", float64(core30)/float64(len(errs)))
	t.Record("readings", float64(len(errs)))
	return nil
}

// UrbanDeployment draws the 60-node urban evaluation layout of Section 3.3:
// nodes scattered over 70×70 m, at least 5 m apart, so distances up to 30 m
// are in play.
func UrbanDeployment(rng *rand.Rand) (*deploy.Deployment, error) {
	return deploy.UniformRandom(60, 70, 70, 5, rng)
}

// GrassGrid46 returns the 46-node offset-grid deployment of the Section 3.6
// grass campaign (Figure 5 minus the three unused positions).
func GrassGrid46() *deploy.Deployment {
	d := deploy.PaperGrid()
	d.Positions = d.Positions[:46]
	d.Name = "grass-grid-46"
	return d
}

// TownSet draws the Figures 20–22 town setting: the 59-position town map
// with 18 anchors, and every pair within 22 m measured with N(0, 0.33 m)
// noise. The set is borrowed from ws (nil allocates). Like the other
// paper setups it is shared with the figure reproductions, and solver
// settings stay with each caller.
func TownSet(ws *scratch.Arena, rng *rand.Rand) (*deploy.Deployment, *measure.Set, error) {
	dep := deploy.Town(rng)
	set, err := measure.GenerateIn(ws, dep, 22, measure.GaussianNoise, rng)
	if err != nil {
		return nil, nil, err
	}
	return dep, set, nil
}

// RangingUrbanBaseline is the paper's Section 3.3 setting (Figure 2): the
// baseline service on a fresh random 60-node urban deployment each trial.
func RangingUrbanBaseline() Scenario {
	return Scenario{
		Name:        "ranging-urban-baseline",
		Description: "baseline 64 ms-chirp ranging, random 60-node urban deployment, pairs ≤ 30 m (paper Fig. 2)",
		Trials:      8,
		Run: func(t *T) error {
			dep, err := UrbanDeployment(t.RNG)
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
			return recordSignedErrors(t, raw, dep)
		},
	}
}

// RangingGrassRefined is the refined-service grass campaign of Section 3.6
// (Figure 6): the 46-node offset grid, three rounds, pairs ≤ 21 m.
func RangingGrassRefined() Scenario {
	return Scenario{
		Name:        "ranging-grass-refined",
		Description: "refined chirp-pattern ranging on the 46-node grass grid, 3 rounds (paper Fig. 6)",
		Trials:      8,
		Run: func(t *T) error {
			dep := GrassGrid46()
			svc, err := ranging.NewService(ranging.DefaultConfig(acoustics.Grass()), dep, t.RNG)
			if err != nil {
				return err
			}
			raw, err := svc.Campaign(3, 21)
			if err != nil {
				return err
			}
			return recordSignedErrors(t, raw, dep)
		},
	}
}

// NoiseSweep measures ranging robustness against ambient noise the paper
// only gestures at: a 15 m grass pair with the noise floor raised by
// deltaDB, 30 measurement attempts per trial.
func NoiseSweep(deltaDB float64) Scenario {
	return Scenario{
		Name: fmt.Sprintf("ranging-noise-%ddb", int(deltaDB)),
		Description: fmt.Sprintf(
			"refined ranging of a 15 m grass pair with the ambient noise floor raised %g dB", deltaDB),
		Trials: 16,
		Run: func(t *T) error {
			env := acoustics.Grass()
			env.NoiseFloor += deltaDB
			cfg := ranging.DefaultConfig(env)
			cfg.Units.FaultProb = 0
			const d = 15.0
			dep := &deploy.Deployment{
				Name:      "noise-pair",
				Positions: []geom.Point{geom.Pt(0, 0), geom.Pt(d, 0)},
			}
			svc, err := ranging.NewService(cfg, dep, t.RNG)
			if err != nil {
				return err
			}
			const attempts = 30
			ok := 0
			for i := 0; i < attempts; i++ {
				if m, hit := svc.MeasurePair(0, 1); hit {
					ok++
					t.Record("abs_error_m", math.Abs(m-d))
				}
			}
			t.Record("success_rate", float64(ok)/attempts)
			return nil
		},
	}
}

// DefaultMaxRangeDistances returns the paper's §3.6.2 sweep distances.
func DefaultMaxRangeDistances() []float64 {
	return []float64{5, 10, 15, 20, 25, 30, 35, 40, 50}
}

// MaxRangeScenario is the Section 3.6.2 maximum-range analysis as an engine
// scenario: trial k measures a single pair at distances[k] for
// trialsPerPoint rounds and records the detection success rate. The seed
// derivation reproduces the original serial experiment's arithmetic
// (seed + 7·distance + threshold), so the ported figure generator's output
// is unchanged.
func MaxRangeScenario(env acoustics.Environment, detectT uint8, distances []float64, trialsPerPoint int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("maxrange-%s-t%d", env.Name, detectT),
		Description: fmt.Sprintf(
			"detection success vs distance, %s, threshold T=%d (paper §3.6.2)", env.Name, detectT),
		Trials: len(distances),
		// One trial per distance point: a larger -trials override must not
		// index past the sweep list.
		MaxTrials: len(distances),
		SeedFn: func(seed int64, trial int) int64 {
			return seed + int64(distances[trial]*7) + int64(detectT)
		},
		Run: func(t *T) error {
			d := distances[t.Trial]
			rate, err := MaxRangePoint(env, detectT, d, trialsPerPoint, t.RNG)
			if err != nil {
				return err
			}
			t.Record("distance_m", d)
			t.Record("success_rate", rate)
			return nil
		},
	}
}

// MaxRangePoint measures one (environment, threshold, distance) point of the
// §3.6.2 sweep: the detection success rate of a single pair at distance d
// over `rounds` measurement attempts. Shared by the library scenario above
// and the maxrange figure campaign so both sweep exactly the same code.
func MaxRangePoint(env acoustics.Environment, detectT uint8, d float64, rounds int, rng *rand.Rand) (float64, error) {
	dep := &deploy.Deployment{
		Name:      "pair",
		Positions: []geom.Point{geom.Pt(0, 0), geom.Pt(d, 0)},
	}
	cfg := ranging.DefaultConfig(env)
	cfg.MaxBufferRange = 55
	cfg.DetectT = detectT
	cfg.Units.FaultProb = 0
	svc, err := ranging.NewService(cfg, dep, rng)
	if err != nil {
		return 0, err
	}
	ok := 0
	for i := 0; i < rounds; i++ {
		// Success means detecting the actual chirp: a detection >3 m off is
		// a false positive (§3.6).
		if m, hit := svc.MeasurePair(0, 1); hit && math.Abs(m-d) <= 3 {
			ok++
		}
	}
	return float64(ok) / float64(rounds), nil
}

// townMultilat draws a fresh town set and multilaterates it from the
// town's anchors less dropAnchors random ones.
func townMultilat(t *T, dropAnchors int) error {
	dep, set, err := TownSet(t.Scratch(), t.RNG)
	if err != nil {
		return err
	}
	kept := append([]int(nil), dep.Anchors...)
	if dropAnchors > 0 {
		t.RNG.Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
		if dropAnchors > len(kept) {
			dropAnchors = len(kept)
		}
		kept = kept[:len(kept)-dropAnchors]
	}
	anchors := make(map[int]geom.Point, len(kept))
	for _, a := range kept {
		anchors[a] = dep.Positions[a]
	}
	// Unlike the single-seed Figure 20 run (whose footnote 5 omits the
	// intersection consistency check), the Monte Carlo sweep keeps the
	// §4.1.2 check on: across many random towns, the occasional
	// near-collinear anchor triple otherwise produces a wildly divergent
	// least-squares fix that dominates the mean.
	res, err := core.SolveMultilaterationIn(t.Scratch(), set, anchors, core.DefaultMultilatConfig())
	if err != nil {
		return err
	}
	nonAnchors := float64(dep.N() - len(kept))
	t.Record("anchors_used", float64(len(kept)))
	t.Record("localized_frac", float64(len(res.Localized))/nonAnchors)
	t.Record("anchors_per_node", res.AvgAnchorsPerNode)
	if len(res.Localized) > 0 {
		avg, worst, err := eval.AvgErrorAbsolute(res.Positions, dep.Positions)
		if err != nil {
			return err
		}
		t.Record("avg_error_m", avg)
		t.Record("worst_error_m", worst)
	}
	return nil
}

// MultilatTown is the paper's Figure 20 setting: a fresh random town
// deployment (59 nodes, 18 anchors) multilaterated each trial.
func MultilatTown() Scenario {
	return Scenario{
		Name:        "multilat-town",
		Description: "multilateration on the random town map, 59 nodes / 18 anchors (paper Fig. 20)",
		Trials:      16,
		Run:         func(t *T) error { return townMultilat(t, 0) },
	}
}

// AnchorDropout stresses anchor availability beyond the paper: the town
// scenario with `drop` of its 18 anchors removed at random each trial.
func AnchorDropout(drop int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("multilat-anchor-dropout-%d", drop),
		Description: fmt.Sprintf(
			"town multilateration with %d of 18 anchors randomly dropped per trial", drop),
		Trials: 16,
		Run:    func(t *T) error { return townMultilat(t, drop) },
	}
}

// LargeGrid scales multilateration to deployments far beyond the paper's
// 60 nodes: a rows×cols offset grid (9/10 m spacing), 10% random anchors,
// simulated measurements within 22 m.
func LargeGrid(rows, cols int) Scenario {
	n := rows * cols
	return Scenario{
		Name: fmt.Sprintf("multilat-grid-%d", n),
		Description: fmt.Sprintf(
			"multilateration on a %d×%d offset grid (%d nodes, 10%% random anchors)", rows, cols, n),
		Trials: 8,
		Run: func(t *T) error {
			dep, err := deploy.OffsetGrid(rows, cols, 9, 10)
			if err != nil {
				return err
			}
			if err := dep.ChooseRandomAnchors(n/10, t.RNG); err != nil {
				return err
			}
			set, err := measure.GenerateIn(t.Scratch(), dep, 22, measure.GaussianNoise, t.RNG)
			if err != nil {
				return err
			}
			anchors := make(map[int]geom.Point, len(dep.Anchors))
			for _, a := range dep.Anchors {
				anchors[a] = dep.Positions[a]
			}
			// At 10% anchor density most grid nodes see fewer than 3
			// original anchors within the 22 m cutoff, so coverage relies
			// on the §4.1.1 progressive extension: localized nodes are
			// promoted to anchors and localization iterates to a fixpoint.
			cfg := core.DefaultMultilatConfig()
			cfg.Progressive = true
			res, err := core.SolveMultilaterationIn(t.Scratch(), set, anchors, cfg)
			if err != nil {
				return err
			}
			t.Record("pairs", float64(set.Len()))
			t.Record("localized_frac", float64(len(res.Localized))/float64(dep.N()-len(dep.Anchors)))
			if len(res.Localized) > 0 {
				avg, worst, err := eval.AvgErrorAbsolute(res.Positions, dep.Positions)
				if err != nil {
					return err
				}
				t.Record("avg_error_m", avg)
				t.Record("worst_error_m", worst)
			}
			return nil
		},
	}
}

// LSSTownConstrained is the paper's Figure 21 setting: anchor-free
// centralized LSS with the 9 m minimum-spacing constraint on a fresh town
// deployment each trial.
func LSSTownConstrained() Scenario {
	return Scenario{
		Name:        "lss-town-constrained",
		Description: "centralized constrained LSS on the random town map, no anchors (paper Fig. 21)",
		Trials:      4,
		Run: func(t *T) error {
			dep, set, err := TownSet(t.Scratch(), t.RNG)
			if err != nil {
				return err
			}
			res, err := core.SolveLSSIn(t.Scratch(), set, core.DefaultLSSConfig(9), t.RNG)
			if err != nil {
				return err
			}
			a, err := eval.Fit(res.Positions, dep.Positions)
			if err != nil {
				return err
			}
			t.Record("avg_error_m", a.AvgError)
			t.Record("max_error_m", a.MaxError)
			t.Record("final_E", res.Error)
			return nil
		},
	}
}
