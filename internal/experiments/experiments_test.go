package experiments

import (
	"strings"
	"testing"

	"resilientloc/internal/engine"
)

// The experiment suite doubles as the integration test of the whole
// repository: each test runs a figure reproduction end-to-end and asserts
// the paper's qualitative claim (the "shape": who wins, by roughly what
// factor, where breakdowns happen).

const testSeed = 1

func mustGet(t *testing.T, r *Result, name string) float64 {
	t.Helper()
	v, ok := r.Get(name)
	if !ok {
		t.Fatalf("metric %q missing from %s: %+v", name, r.ID, r.Metrics)
	}
	return v
}

func TestAllRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Campaign == nil {
			t.Fatalf("malformed experiment entry %s", e.ID)
		}
		if c := defaultCampaign(t, e, 1); c.Scenario.Name != e.ID {
			t.Errorf("experiment %s: campaign scenario named %q, want the ID", e.ID, c.Scenario.Name)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		ids[e.ID] = true
	}
	want := []string{
		"fig02", "fig04", "fig06", "fig07", "fig08", "fig10", "maxrange",
		"fig11", "fig12", "fig14", "fig16", "fig18", "fig19",
		"fig20", "fig21", "fig22", "fig23", "fig24", "fig25",
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
		if _, ok := Find(id); !ok {
			t.Errorf("Find(%s) failed", id)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find accepted unknown ID")
	}
}

// TestFixedTrialsIgnoreOverride pins that a runner-level trial override
// cannot truncate a figure campaign's structural trial count (which its
// Finalize hard-codes): the maxrange sweep must run all 36 points even under
// Config{Trials: 5}.
func TestFixedTrialsIgnoreOverride(t *testing.T) {
	runner, err := engine.NewRunner(engine.Config{Seed: 1, Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := Find("maxrange")
	if !ok {
		t.Fatal("maxrange missing")
	}
	res, rep, err := engine.RunCampaign(runner, defaultCampaign(t, e, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 36 {
		t.Errorf("ran %d trials, want the structural 36", rep.Trials)
	}
	if len(res.Series) != 4 {
		t.Errorf("got %d series, want 4", len(res.Series))
	}
}

func TestResultRender(t *testing.T) {
	r := &Result{ID: "x", Title: "T", PaperClaim: "C", Notes: "N"}
	r.Add("m", 1.5, "m")
	r.Series = append(r.Series, Series{Name: "s", Points: []SeriesPoint{{1, 2}}})
	out := r.Render()
	for _, want := range []string{"x", "T", "C", "N", "m", "1.500", "series s"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if _, ok := r.Get("absent"); ok {
		t.Error("Get found absent metric")
	}
}

// TestFigureResultRejectsUnknownShapes: a one-trial figure's Finalize fails
// on a metric with no known unit or a series not recorded as X and Y,
// rather than dropping or guessing.
func TestFigureResultRejectsUnknownShapes(t *testing.T) {
	runner, err := engine.NewRunner(engine.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		run        engine.TrialFunc
	}{
		{"unknown metric", "no known unit", func(t *engine.T) error { t.Record("no such metric", 1); return nil }},
		{"bare series", "not recorded as X and Y", func(t *engine.T) error { t.RecordSeries("s", []float64{1}); return nil }},
		{"X without Y", "not recorded as X and Y", func(t *engine.T) error { t.RecordSeries("s"+seriesX, []float64{1}); return nil }},
	} {
		_, _, err := engine.RunCampaign(runner, singleTrial(figure{id: "test"}, tc.run))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestRegressionNote: a figure's regression rule notes the regression
// exactly when both metrics are present and after exceeds before.
func TestRegressionNote(t *testing.T) {
	runner, err := engine.NewRunner(engine.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := figure{id: "test", regression: regression{"measurements", "total pairs", "REGRESSION"}}
	for _, tc := range []struct {
		record map[string]float64
		want   string
	}{
		{map[string]float64{"measurements": 1, "total pairs": 2}, "REGRESSION"},
		{map[string]float64{"measurements": 2, "total pairs": 1}, ""},
		{map[string]float64{"total pairs": 2}, ""},
	} {
		r, _, err := engine.RunCampaign(runner, singleTrial(f, func(t *engine.T) error {
			for _, name := range []string{"measurements", "total pairs"} {
				if v, ok := tc.record[name]; ok {
					t.Record(name, v)
				}
			}
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		if r.Notes != tc.want {
			t.Errorf("recorded %v: note %q, want %q", tc.record, r.Notes, tc.want)
		}
	}
}

// runFig executes the registered figure id at testSeed.
func runFig(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("figure %s not registered", id)
	}
	r, err := e.RunWorkers(testSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFig02Shape(t *testing.T) {
	r := runFig(t, "fig02")
	if frac := mustGet(t, r, "fraction |error| > 1 m"); frac < 0.1 {
		t.Errorf("large-error fraction %.3f — baseline should be error-prone", frac)
	}
	if under := mustGet(t, r, "underestimate share of large errors"); under <= 0.5 {
		t.Errorf("underestimate share %.3f — Figure 2 shows mostly underestimates", under)
	}
}

func TestFig04Shape(t *testing.T) {
	r := runFig(t, "fig04")
	raw := mustGet(t, r, "raw fraction |error| > 1 m")
	filt := mustGet(t, r, "filtered fraction |error| > 1 m")
	if filt >= raw {
		t.Errorf("median filtering did not reduce large errors: %.3f -> %.3f", raw, filt)
	}
}

func TestFig06Shape(t *testing.T) {
	r := runFig(t, "fig06")
	if core := mustGet(t, r, "fraction within ±30 cm"); core < 0.7 {
		t.Errorf("core fraction %.3f — most refined errors should fall within ±30 cm", core)
	}
	if med := mustGet(t, r, "median |error|"); med > 0.33 {
		t.Errorf("median |error| %.3f m — paper claims ≈1%% of max range (0.33 m)", med)
	}
}

func TestFig07Shape(t *testing.T) {
	r := runFig(t, "fig07")
	all := mustGet(t, r, "all fraction |error| > 1 m")
	bidir := mustGet(t, r, "bidirectional fraction |error| > 1 m")
	if bidir > all {
		t.Errorf("bidirectional check increased large errors: %.4f -> %.4f", all, bidir)
	}
	if maxAll, maxBi := mustGet(t, r, "all max |error|"), mustGet(t, r, "bidirectional max |error|"); maxBi > maxAll {
		t.Errorf("bidirectional max error grew: %.2f -> %.2f", maxAll, maxBi)
	}
}

func TestFig08Shape(t *testing.T) {
	r := runFig(t, "fig08")
	near := mustGet(t, r, "large-error fraction, nearest bin")
	far := mustGet(t, r, "large-error fraction, farthest bin")
	if far < near {
		t.Errorf("large-error fraction should grow with distance: near %.3f, far %.3f", near, far)
	}
}

func TestFig10Shape(t *testing.T) {
	r := runFig(t, "fig10")
	if got := mustGet(t, r, "clean chirps detected (of 4)"); got != 4 {
		t.Errorf("clean detections %.0f, want 4", got)
	}
	if got := mustGet(t, r, "noisy chirps detected (of 4)"); got < 3 {
		t.Errorf("noisy detections %.0f, want ≥3 (paper: 3)", got)
	}
	if fp := mustGet(t, r, "noisy false positives") + mustGet(t, r, "clean false positives"); fp != 0 {
		t.Errorf("false positives %.0f, want 0", fp)
	}
}

func TestMaxRangeShape(t *testing.T) {
	r := runFig(t, "maxrange")
	if g10 := mustGet(t, r, "grass @10m (T=2)"); g10 < 0.8 {
		t.Errorf("grass @10m = %.2f, want ≥0.8 (paper: 80-85%%)", g10)
	}
	if g25 := mustGet(t, r, "grass @25m (T=2)"); g25 > 0.1 {
		t.Errorf("grass @25m = %.2f, want ≈0 (no detection beyond 20m)", g25)
	}
	if p25 := mustGet(t, r, "pavement @25m (T=2)"); p25 < 0.8 {
		t.Errorf("pavement @25m = %.2f, want ≥0.8 (reliable)", p25)
	}
}

func TestFig11Shape(t *testing.T) {
	r := runFig(t, "fig11")
	with := mustGet(t, r, "error with consistency check")
	without := mustGet(t, r, "error without consistency check")
	if with >= without {
		t.Errorf("consistency check did not help: %.2f vs %.2f", with, without)
	}
	if with > 1 {
		t.Errorf("checked fix error %.2f m, want sub-meter", with)
	}
}

func TestFig12Shape(t *testing.T) {
	r := runFig(t, "fig12")
	if frac := mustGet(t, r, "non-anchors localized"); frac < 9 {
		t.Errorf("localized %.0f of 10 — dense anchors should localize nearly all", frac)
	}
	if avg := mustGet(t, r, "average localization error"); avg > 1.0 {
		t.Errorf("avg error %.3f m, want ≤ 1 (paper: 0.868)", avg)
	}
}

func TestFig14Shape(t *testing.T) {
	r := runFig(t, "fig14")
	if frac := mustGet(t, r, "localized fraction"); frac > 0.5 {
		t.Errorf("localized fraction %.2f — sparse anchors should break multilateration (paper: 0.20)", frac)
	}
	if apn := mustGet(t, r, "anchors per node"); apn > 3 {
		t.Errorf("anchors per node %.2f, want sparse (paper: 1.47)", apn)
	}
}

func TestFig16Shape(t *testing.T) {
	r := runFig(t, "fig16")
	if frac := mustGet(t, r, "localized fraction"); frac < 0.7 {
		t.Errorf("localized fraction %.2f, want ≈0.8 after augmentation", frac)
	}
	if apn := mustGet(t, r, "anchors per node"); apn < 3 {
		t.Errorf("anchors per node %.2f, want ≈3.84", apn)
	}
}

func TestFig18vs19Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig18 uses a large restart budget")
	}
	r18 := runFig(t, "fig18")
	r19 := runFig(t, "fig19")
	with := mustGet(t, r18, "average error")
	without := mustGet(t, r19, "average error")
	if with > 3.5 {
		t.Errorf("constrained avg error %.2f m, want ≲ 2.2 (paper)", with)
	}
	if without < 3*with {
		t.Errorf("unconstrained %.2f m should be far worse than constrained %.2f m (paper: 16.6 vs 2.2)", without, with)
	}
}

func TestFig20Shape(t *testing.T) {
	r := runFig(t, "fig20")
	localized := mustGet(t, r, "non-anchors localized")
	total := mustGet(t, r, "of non-anchors")
	if localized < 0.7*total {
		t.Errorf("localized %.0f of %.0f — dense town should localize most", localized, total)
	}
	if avg := mustGet(t, r, "average error of localized"); avg > 1.0 {
		t.Errorf("avg error %.3f m, want ≤ 1 (paper: 0.95)", avg)
	}
}

func TestFig21vs22Shape(t *testing.T) {
	r21 := runFig(t, "fig21")
	if avg := mustGet(t, r21, "average error"); avg > 1.0 {
		t.Errorf("constrained town avg %.2f m, want ≤ 1 (paper: 0.548)", avg)
	}
	r22 := runFig(t, "fig22")
	with := mustGet(t, r22, "mean single-descent error, constrained")
	without := mustGet(t, r22, "mean single-descent error, no constraint")
	if without <= with {
		t.Errorf("unconstrained single descents (%.2f m) should fare worse than constrained (%.2f m)", without, with)
	}
	if without < 5 {
		t.Errorf("unconstrained single-descent mean %.2f m, want >5 (paper: 13.6)", without)
	}
}

func TestFig23Shape(t *testing.T) {
	r := runFig(t, "fig23")
	if len(r.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Points) < 10 {
			t.Errorf("series %s too short: %d points", s.Name, len(s.Points))
		}
		// Mean objective must be non-increasing after the first epoch.
		for i := 2; i < len(s.Points); i++ {
			if s.Points[i].Y > s.Points[i-1].Y*1.001 {
				t.Errorf("series %s increases at epoch %d", s.Name, i)
				break
			}
		}
	}
}

func TestFig24vs25Shape(t *testing.T) {
	r24 := runFig(t, "fig24")
	r25 := runFig(t, "fig25")
	sparseErr := mustGet(t, r24, "average error of aligned")
	denseErr := mustGet(t, r25, "average error of aligned")
	if sparseErr < 3*denseErr {
		t.Errorf("sparse distributed (%.2f m) should be far worse than extended (%.2f m) — paper: 9.5 vs 0.53", sparseErr, denseErr)
	}
	if denseErr > 1.5 {
		t.Errorf("extended distributed avg %.2f m, want ≤ 1.5 (paper: 0.534)", denseErr)
	}
	aligned := mustGet(t, r25, "nodes aligned")
	total := mustGet(t, r25, "of nodes")
	if aligned < total {
		t.Errorf("extended run aligned %.0f of %.0f, want all", aligned, total)
	}
}
