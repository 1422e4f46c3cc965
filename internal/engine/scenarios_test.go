package engine

import (
	"testing"

	"resilientloc/internal/acoustics"
)

// TestLibraryWellFormed checks every suite member, and that each is
// registered as a fixed-point factory.
func TestLibraryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, suite := range Suites() {
		for _, s := range suite.Scenarios {
			if err := s.Validate(); err != nil {
				t.Errorf("scenario %q invalid: %v", s.Name, err)
			}
			if s.Description == "" {
				t.Errorf("scenario %q has no description", s.Name)
			}
			if s.Trials <= 0 {
				t.Errorf("scenario %q has no default trial count", s.Name)
			}
			if seen[s.Name] {
				t.Errorf("duplicate scenario name %q", s.Name)
			}
			seen[s.Name] = true
			if f, ok := FindFactory(s.Name); !ok || len(f.Params) != 0 {
				t.Errorf("suite member %q is not registered as a fixed point", s.Name)
			}
		}
	}
	if len(seen) < 10 {
		t.Errorf("library has only %d scenarios", len(seen))
	}
}

func TestSuitesWellFormed(t *testing.T) {
	for _, suite := range Suites() {
		if suite.Name == "" || suite.Description == "" || len(suite.Scenarios) == 0 {
			t.Errorf("malformed suite %+v", suite.Name)
		}
	}
}

// TestTownScenariosRunAndAreDeterministic runs the cheap multilateration
// scenarios end-to-end at two worker counts with a reduced trial budget and
// checks both the physics and the reproducibility.
func TestTownScenariosRunAndAreDeterministic(t *testing.T) {
	s := MultilatTown()
	serial := mustRun(t, Config{Workers: 1, Trials: 6, Seed: 5}, s)
	parallel := mustRun(t, Config{Workers: 8, Trials: 6, Seed: 5}, s)
	if !sameReport(serial, parallel) {
		t.Error("multilat-town diverges across worker counts")
	}
	frac, ok := serial.Metric("localized_frac")
	if !ok || frac.Mean < 0.5 {
		t.Errorf("town localization fraction %.2f, want most nodes localized", frac.Mean)
	}
	avg, ok := serial.Metric("avg_error_m")
	if !ok || avg.Mean > 2 {
		t.Errorf("town avg error %.2f m, want small (paper: 0.95 m)", avg.Mean)
	}
}

// TestAnchorDropoutDegrades: removing anchors must not improve coverage —
// the new workload behaves sanely.
func TestAnchorDropoutDegrades(t *testing.T) {
	cfg := Config{Workers: 0, Trials: 6, Seed: 11}
	full := mustRun(t, cfg, MultilatTown())
	dropped := mustRun(t, cfg, AnchorDropout(12))
	fFull, _ := full.Metric("localized_frac")
	fDrop, _ := dropped.Metric("localized_frac")
	if fDrop.Mean > fFull.Mean+0.05 {
		t.Errorf("dropping 12 anchors raised coverage: %.2f -> %.2f", fFull.Mean, fDrop.Mean)
	}
	if used, _ := dropped.Metric("anchors_used"); used.Mean != 6 {
		t.Errorf("anchors_used %.1f, want 6", used.Mean)
	}
}

// TestLargeGridRuns exercises the large-N workload on a smaller grid to
// keep the test fast.
func TestLargeGridRuns(t *testing.T) {
	rep := mustRun(t, Config{Workers: 0, Trials: 2, Seed: 3}, LargeGrid(8, 8))
	frac, ok := rep.Metric("localized_frac")
	if !ok || frac.Mean < 0.5 {
		t.Errorf("large grid localized fraction %.2f, want > 0.5", frac.Mean)
	}
	// Progressive promotion compounds the 0.33 m measurement noise over
	// multiple hops from the sparse original anchors, so the bound is
	// looser than for the anchor-dense town.
	if avg, ok := rep.Metric("avg_error_m"); !ok || avg.Mean > 6 {
		t.Errorf("large grid avg error %.2f m, want < 6 m", avg.Mean)
	}
}

// TestMaxRangeTrialCap: a -trials override larger than the distance list
// must be capped, not index past the sweep.
func TestMaxRangeTrialCap(t *testing.T) {
	s := MaxRangeScenario(acoustics.Grass(), 2, []float64{5, 10}, 2)
	rep := mustRun(t, Config{Workers: 2, Trials: 20, Seed: 1}, s)
	if rep.Trials != 2 {
		t.Errorf("effective trials %d, want capped at 2", rep.Trials)
	}
	if m, _ := rep.Metric("success_rate"); m.Count != 2 {
		t.Errorf("success_rate count %d, want 2", m.Count)
	}
}

// TestNoiseSweepDegrades: raising the noise floor must not increase the
// detection success rate.
func TestNoiseSweepDegrades(t *testing.T) {
	cfg := Config{Workers: 0, Trials: 8, Seed: 13}
	quiet := mustRun(t, cfg, NoiseSweep(0))
	loud := mustRun(t, cfg, NoiseSweep(12))
	sq, _ := quiet.Metric("success_rate")
	sl, _ := loud.Metric("success_rate")
	if sl.Mean > sq.Mean+0.05 {
		t.Errorf("+12 dB noise raised success rate: %.2f -> %.2f", sq.Mean, sl.Mean)
	}
}
