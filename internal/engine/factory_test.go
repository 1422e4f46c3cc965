package engine

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientloc/internal/acoustics"
	"resilientloc/internal/engine/params"
)

var updateFactoryGolden = flag.Bool("update", false, "rewrite the factory-workload golden reports")

func TestFactoriesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Factories() {
		if f.Name == "" || f.Description == "" {
			t.Errorf("factory %+v missing name or description", f.Name)
		}
		if seen[f.Name] {
			t.Errorf("duplicate factory name %q", f.Name)
		}
		seen[f.Name] = true
		if _, ok := FindFactory(f.Name); !ok {
			t.Errorf("FindFactory(%q) failed", f.Name)
		}
		if err := f.Params.SelfCheck(); err != nil {
			t.Errorf("factory %q schema: %v", f.Name, err)
		}
		// The default operating point must build and validate.
		s, resolved, err := BuildScenario(f.Name, nil)
		if err != nil {
			t.Errorf("factory %q default build: %v", f.Name, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("factory %q default scenario invalid: %v", f.Name, err)
		}
		if len(resolved) != len(f.Params) {
			t.Errorf("factory %q resolved %d params, schema declares %d", f.Name, len(resolved), len(f.Params))
		}
	}
	if _, ok := FindFactory("nope"); ok {
		t.Error("FindFactory accepted unknown name")
	}
}

func TestBuildScenarioErrors(t *testing.T) {
	if _, _, err := BuildScenario("no-such-scenario", nil); err == nil {
		t.Error("unknown name accepted")
	}
	// Suite members are fixed points — params must be rejected.
	_, _, err := BuildScenario("multilat-town", params.Map{"drop": params.Num(3)})
	if err == nil || !strings.Contains(err.Error(), "takes no parameters") {
		t.Errorf("library instance with params: got %v", err)
	}
	// Factory param validation errors carry the scenario and param names.
	_, _, err = BuildScenario("ranging-noise", params.Map{"delta_db": params.Num(99)})
	if err == nil || !strings.Contains(err.Error(), "delta_db") || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range param: got %v", err)
	}
	_, _, err = BuildScenario("ranging-noise", params.Map{"bogus": params.Num(1)})
	if err == nil || !strings.Contains(err.Error(), `unknown parameter "bogus"`) {
		t.Errorf("unknown param: got %v", err)
	}
	_, _, err = BuildScenario("maxrange", params.Map{"env": params.Str("moon")})
	if err == nil || !strings.Contains(err.Error(), "not one of") {
		t.Errorf("bad enum: got %v", err)
	}
}

// TestFactoryPointsMatchLegacyConstructors pins every suite member that is
// also a factory point: the fixed point, the param-expressed factory point
// and the compiled-in constructor all run byte-identically, so a fixed copy
// can never drift from its factory. Subtests group the points by factory.
func TestFactoryPointsMatchLegacyConstructors(t *testing.T) {
	type point struct {
		fixed  string
		p      params.Map
		legacy Scenario
	}
	cases := []struct {
		factory string
		points  []point
	}{
		{"ranging-noise", []point{
			{"ranging-noise-0db", params.Map{"delta_db": params.Num(0)}, NoiseSweep(0)},
			{"ranging-noise-6db", params.Map{"delta_db": params.Num(6)}, NoiseSweep(6)},
			{"ranging-noise-12db", params.Map{"delta_db": params.Num(12)}, NoiseSweep(12)},
		}},
		{"maxrange", []point{
			{"maxrange-grass-t2", params.Map{"env": params.Str("grass"), "detect_t": params.Num(2)},
				MaxRangeScenario(acoustics.Grass(), 2, DefaultMaxRangeDistances(), 40)},
			{"maxrange-pavement-t2", params.Map{"env": params.Str("pavement"), "detect_t": params.Num(2)},
				MaxRangeScenario(acoustics.Pavement(), 2, DefaultMaxRangeDistances(), 40)},
		}},
		{"multilat-dropout", []point{
			{"multilat-anchor-dropout-6", params.Map{"drop": params.Num(6)}, AnchorDropout(6)},
			{"multilat-anchor-dropout-12", params.Map{"drop": params.Num(12)}, AnchorDropout(12)},
		}},
		{"multilat-grid", []point{
			{"multilat-grid-196", params.Map{"rows": params.Num(14), "cols": params.Num(14)}, LargeGrid(14, 14)},
		}},
	}
	for _, c := range cases {
		t.Run(c.factory, func(t *testing.T) {
			for _, pt := range c.points {
				t.Run(pt.fixed, func(t *testing.T) {
					fixedPoint, resolved, err := BuildScenario(pt.fixed, nil)
					if err != nil {
						t.Fatal(err)
					}
					if resolved != nil {
						t.Errorf("fixed point resolved params %s, want none", resolved.Canonical())
					}
					built, _, err := BuildScenario(c.factory, pt.p)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range []Scenario{built, pt.legacy} {
						if s.Name != pt.fixed {
							t.Fatalf("built %q, want %q", s.Name, pt.fixed)
						}
					}
					cfg := Config{Workers: 2, Trials: 4, Seed: 7}
					want := mustRun(t, cfg, fixedPoint)
					if !sameReport(mustRun(t, cfg, built), want) {
						t.Errorf("factory point %s diverges from the fixed point", pt.p.Canonical())
					}
					if !sameReport(mustRun(t, cfg, pt.legacy), want) {
						t.Error("compiled-in constructor diverges from the fixed point")
					}
				})
			}
		})
	}
}

// TestMobilitySpeedDegrades: the new workload's physics — measurements taken
// mid-walk at higher speed must hurt accuracy relative to a static network.
func TestMobilitySpeedDegrades(t *testing.T) {
	cfg := Config{Workers: 0, Trials: 6, Seed: 9}
	still := mustRun(t, cfg, MobilityWaypoint(0, 4))
	fast := mustRun(t, cfg, MobilityWaypoint(5, 4))
	eStill, ok := still.Metric("avg_error_m")
	if !ok {
		t.Fatal("static run recorded no avg_error_m")
	}
	eFast, ok := fast.Metric("avg_error_m")
	if !ok {
		t.Fatal("fast run recorded no avg_error_m")
	}
	if eFast.Mean <= eStill.Mean {
		t.Errorf("5 m/s motion did not degrade accuracy: %.3f m -> %.3f m", eStill.Mean, eFast.Mean)
	}
	if eStill.Mean > 2 {
		t.Errorf("static mobility run avg error %.2f m, want town-like (< 2 m)", eStill.Mean)
	}
}

// TestMixedEnvRuns: the straddling-grid workload produces readings from both
// sides of the boundary and town-like error statistics.
func TestMixedEnvRuns(t *testing.T) {
	s, _, err := BuildScenario("ranging-mixed-env", params.Map{"boundary_frac": params.Num(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, Config{Workers: 4, Trials: 2, Seed: 3}, s)
	frac, ok := rep.Metric("env_a_pair_frac")
	if !ok || frac.Mean <= 0.1 || frac.Mean >= 0.9 {
		t.Errorf("env_a_pair_frac %.2f, want a genuine split", frac.Mean)
	}
	if n, ok := rep.Metric("readings"); !ok || n.Mean < 50 {
		t.Errorf("readings %.0f, want a populated campaign", n.Mean)
	}
	if med, ok := rep.Metric("median_abs_error_m"); !ok || med.Mean > 1 {
		t.Errorf("median abs error %.3f m, want sub-meter", med.Mean)
	}
}

// slowScenarios take most of the corpus's time; -short (the race step)
// skips them and the full run covers them.
var slowScenarios = map[string]bool{"ranging-grass-refined": true, "ranging-urban-baseline": true}

func factoryGoldenPath(name string, seed int64) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_seed%d.golden", name, seed))
}

// TestGoldenFactoryWorkloads pins the scenario engine's workloads at seeds 1
// and 5 across worker counts, exactly like the figure corpus: every factory
// at its defaults (a fixed point's golden is named after it, a
// parameterized factory's gets a "-defaults" suffix), and a non-default
// mobility point. The golden bytes are the serial run's JSON report with
// execution metadata cleared.
func TestGoldenFactoryWorkloads(t *testing.T) {
	type point struct {
		golden, name string
		p            params.Map
	}
	points := []point{
		{"mobility-waypoint", "mobility-waypoint", params.Map{"speed_mps": params.Num(1.5), "epoch_s": params.Num(4)}},
		{"ranging-mixed-env", "ranging-mixed-env", nil},
	}
	pinned := map[string]bool{}
	for _, pt := range points {
		pinned[pt.name] = pt.p == nil
	}
	for _, f := range Factories() {
		switch {
		case pinned[f.Name]: // a factory pinned at its defaults above keeps its golden
		case len(f.Params) == 0:
			points = append(points, point{f.Name, f.Name, nil})
		default:
			points = append(points, point{f.Name + "-defaults", f.Name, nil})
		}
	}
	for _, pt := range points {
		for _, seed := range []int64{1, 5} {
			for _, workers := range []int{1, 8} {
				if *updateFactoryGolden && workers != 1 {
					continue // goldens are defined by the serial run
				}
				t.Run(fmt.Sprintf("%s/seed%d/workers%d", pt.golden, seed, workers), func(t *testing.T) {
					t.Parallel() // independent runs; each writes or reads only its own file
					if testing.Short() && slowScenarios[pt.name] {
						t.Skip("slow scenario; run without -short")
					}
					s, _, err := BuildScenario(pt.name, pt.p)
					if err != nil {
						t.Fatal(err)
					}
					rep := mustRun(t, Config{Workers: workers, Seed: seed}, s)
					rep.ClearExecutionMeta()
					got, err := json.MarshalIndent(rep, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, '\n')
					path := factoryGoldenPath(pt.golden, seed)
					if *updateFactoryGolden {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden file (regenerate with -update): %v", err)
					}
					if string(got) != string(want) {
						t.Errorf("%s seed %d workers %d diverged from golden report\n--- got ---\n%s--- want ---\n%s",
							pt.golden, seed, workers, got, want)
					}
				})
			}
		}
	}
}
