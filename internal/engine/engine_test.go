package engine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"resilientloc/internal/stats"
)

// noisyScenario is a cheap synthetic scenario exercising scalars (multiple
// samples per trial), series, and occasionally-absent metrics.
func noisyScenario() Scenario {
	return Scenario{
		Name:        "test-noisy",
		Description: "synthetic mixture metrics",
		Trials:      100,
		Run: func(t *T) error {
			for i := 0; i < 5; i++ {
				t.Record("err_m", t.RNG.NormFloat64()*0.3)
			}
			t.Record("trial_mean", t.RNG.Float64())
			if t.Trial%3 == 0 {
				t.Record("sparse", float64(t.Trial))
			}
			hist := make([]float64, 16)
			v := 10.0
			for i := range hist {
				v *= 0.8 + 0.1*t.RNG.Float64()
				hist[i] = v
			}
			t.RecordSeries("E", hist)
			return nil
		},
	}
}

// runReport runs s's whole trial space as its report campaign.
func runReport(r *Runner, s Scenario) (*Report, error) {
	rep, _, err := RunCampaign(r, ReportCampaign(s))
	return rep, err
}

// trialName is the name perTrial records trial's samples of name under.
func trialName(name string, trial int) string { return fmt.Sprintf("%s #%d", name, trial) }

// perTrial wraps s so that each trial also records every sample under a
// name only it uses (trialName): each trial's values then read back from
// the report as one trial's metric and series aggregates.
func perTrial(s Scenario) Scenario {
	run := s.Run
	s.Run = func(t *T) error {
		if err := run(t); err != nil {
			return err
		}
		for _, smp := range t.scalars {
			t.Record(trialName(smp.name, t.Trial), smp.value)
		}
		for _, ss := range t.series {
			t.RecordSeries(trialName(ss.name, t.Trial), ss.values)
		}
		return nil
	}
	return s
}

// seriesNamed returns the summary of the named series, if present.
func seriesNamed(rep *Report, name string) (SeriesSummary, bool) {
	for _, s := range rep.Series {
		if s.Name == name {
			return s, true
		}
	}
	return SeriesSummary{}, false
}

func mustRun(t *testing.T, cfg Config, s Scenario) *Report {
	t.Helper()
	return mustRunCampaign(t, cfg, ReportCampaign(s))
}

func mustRunCampaign(t *testing.T, cfg Config, c Campaign[*Report]) *Report {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := RunCampaign(r, c)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// comparable strips the fields that legitimately differ between runs
// (wall-clock, realized worker count).
func comparable(rep *Report) *Report {
	c := *rep
	c.ElapsedSeconds = 0
	c.Workers = 0
	return &c
}

// sameReport is reflect.DeepEqual with NaN == NaN, so NaN aggregates don't
// mask genuine differences.
func sameReport(a, b *Report) bool {
	return sameValue(reflect.ValueOf(comparable(a)), reflect.ValueOf(comparable(b)))
}

func sameValue(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() || a.IsNil() != b.IsNil() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// TestDeterminismAcrossWorkerCounts is the engine's core guarantee: the
// same seed must yield byte-identical aggregates at any worker count.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	s := perTrial(noisyScenario())
	base := mustRun(t, Config{Workers: 1, Seed: 42}, s)
	for _, workers := range []int{2, 3, 8, 64} {
		got := mustRun(t, Config{Workers: workers, Seed: 42}, s)
		if !sameReport(base, got) {
			t.Errorf("workers=%d: report differs from serial run", workers)
		}
	}
	// A different seed must actually change the results.
	other := mustRun(t, Config{Workers: 1, Seed: 43}, s)
	if reflect.DeepEqual(comparable(base).Metrics, comparable(other).Metrics) {
		t.Error("different seeds produced identical aggregates")
	}
}

// TestAggregatorsMatchBatch checks the streaming aggregates against batch
// statistics computed from the per-trial values.
func TestAggregatorsMatchBatch(t *testing.T) {
	s := Scenario{
		Name:   "test-batch",
		Trials: 400,
		Run: func(t *T) error {
			t.Record("x", t.RNG.NormFloat64()*2+5)
			return nil
		},
	}
	rep := mustRun(t, Config{Workers: 4, Seed: 7}, perTrial(s))
	var xs []float64
	for trial := 0; trial < 400; trial++ {
		m, ok := rep.Metric(trialName("x", trial))
		if !ok || m.Count != 1 {
			t.Fatalf("trial %d: per-trial metric %+v, want one sample", trial, m)
		}
		xs = append(xs, m.Mean)
	}
	m, ok := rep.Metric("x")
	if !ok {
		t.Fatal("metric x missing")
	}
	mean, _ := stats.Mean(xs)
	sd, _ := stats.StdDev(xs)
	med, _ := stats.Percentile(xs, 0.5)
	p90, _ := stats.Percentile(xs, 0.9)
	if math.Abs(m.Mean-mean) > 1e-9 || math.Abs(m.StdDev-sd) > 1e-9 {
		t.Errorf("moments (%.9f, %.9f) vs batch (%.9f, %.9f)", m.Mean, m.StdDev, mean, sd)
	}
	if math.Abs(m.P50-med) > 0.03*math.Abs(med)+0.01 {
		t.Errorf("P50 %.4f vs batch %.4f", m.P50, med)
	}
	if math.Abs(m.P90-p90) > 0.03*math.Abs(p90)+0.01 {
		t.Errorf("P90 %.4f vs batch %.4f", m.P90, p90)
	}
	if m.Count != 400 {
		t.Errorf("count %d, want 400", m.Count)
	}
}

// TestSeriesPointwiseMean checks pointwise aggregation against a direct
// trial-ordered accumulation.
func TestSeriesPointwiseMean(t *testing.T) {
	s := noisyScenario()
	rep := mustRun(t, Config{Workers: 5, Seed: 9}, perTrial(s))
	e, ok := seriesNamed(rep, "E")
	if !ok || len(rep.Series) != 1+s.Trials {
		t.Fatalf("series = %+v, want E and one per trial", rep.Series)
	}
	got := e.Mean
	var rows [][]float64
	for trial := 0; trial < s.Trials; trial++ {
		row, ok := seriesNamed(rep, trialName("E", trial))
		if !ok || row.Trials != 1 {
			t.Fatalf("trial %d: per-trial series %+v, want one trial's", trial, row)
		}
		rows = append(rows, row.Mean)
	}
	for i := range got {
		var sum float64
		for _, row := range rows {
			sum += row[i]
		}
		want := sum / float64(len(rows))
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("pointwise mean[%d] = %.12f, want %.12f", i, got[i], want)
		}
	}
	if e.Trials != int64(s.Trials) {
		t.Errorf("series trials %d, want %d", e.Trials, s.Trials)
	}
}

// TestSparseMetricsAndNaN: metrics missing from some trials aggregate only
// the recorded samples; NaN records don't poison the aggregates.
func TestSparseMetricsAndNaN(t *testing.T) {
	s := Scenario{
		Name:   "test-sparse",
		Trials: 30,
		Run: func(t *T) error {
			if t.Trial%2 == 0 {
				t.Record("even_only", 1)
			}
			if t.Trial == 5 {
				t.Record("poison", math.NaN())
			}
			t.Record("poison", 2)
			return nil
		},
	}
	rep := mustRun(t, Config{Workers: 3, Seed: 1}, perTrial(s))
	if m, _ := rep.Metric("even_only"); m.Count != 15 {
		t.Errorf("even_only count %d, want 15", m.Count)
	}
	if m, _ := rep.Metric("poison"); m.Count != 30 || math.IsNaN(m.Mean) || m.Mean != 2 {
		t.Errorf("poison summary %+v — NaN must be skipped", m)
	}
	if m, ok := rep.Metric(trialName("even_only", 1)); ok {
		t.Errorf("odd trial 1 has an even_only value %+v", m)
	}
	if m, _ := rep.Metric(trialName("even_only", 2)); m.Count != 1 || m.Mean != 1 {
		t.Errorf("trial 2's even_only value %+v, want one sample of 1", m)
	}
	if m, _ := rep.Metric(trialName("poison", 5)); m.Count != 1 || m.Mean != 2 {
		t.Errorf("trial 5's poison value %+v — its NaN must be skipped", m)
	}
}

// TestTrialErrorDeterministic: the lowest-indexed failing trial's error is
// returned regardless of worker count, and all shards still run.
func TestTrialErrorDeterministic(t *testing.T) {
	boom := errors.New("boom")
	s := Scenario{
		Name:   "test-error",
		Trials: 100,
		Run: func(t *T) error {
			if t.Trial == 17 || t.Trial == 93 {
				return boom
			}
			return nil
		},
	}
	for _, workers := range []int{1, 8} {
		r, err := NewRunner(Config{Workers: workers, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = runReport(r, s)
		if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "trial 17") {
			t.Errorf("workers=%d: err = %v, want trial 17's failure", workers, err)
		}
	}
}

// TestSeriesLengthMismatch: unequal series lengths are an error, not a
// silent misalignment.
func TestSeriesLengthMismatch(t *testing.T) {
	s := Scenario{
		Name:   "test-mismatch",
		Trials: 20,
		Run: func(t *T) error {
			t.RecordSeries("E", make([]float64, 4+t.Trial%2))
			return nil
		},
	}
	r, _ := NewRunner(Config{Workers: 4, Seed: 1})
	if _, err := runReport(r, s); err == nil {
		t.Error("mismatched series lengths accepted")
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for trial := 0; trial < 1000; trial++ {
		s := DeriveSeed(1, trial)
		if seen[s] {
			t.Fatalf("seed collision at trial %d", trial)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("scenario seed ignored")
	}
}

func TestConfigAndScenarioValidation(t *testing.T) {
	if _, err := NewRunner(Config{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := NewRunner(Config{Trials: -1}); err == nil {
		t.Error("negative trials accepted")
	}
	if _, err := NewRunner(Config{ShardSize: -1}); err == nil {
		t.Error("negative shard size accepted")
	}
	r, _ := NewRunner(Config{})
	if _, err := runReport(r, Scenario{Name: "x", Run: func(*T) error { return nil }}); err == nil {
		t.Error("zero trial count accepted")
	}
	if _, err := runReport(r, Scenario{Name: "x", Trials: 1}); err == nil {
		t.Error("nil trial func accepted")
	}
	if _, err := runReport(r, Scenario{Trials: 1, Run: func(*T) error { return nil }}); err == nil {
		t.Error("unnamed scenario accepted")
	}
}

// TestTrialsOverride: the runner's Trials takes precedence over the
// scenario default, and shard size is honored.
func TestTrialsOverride(t *testing.T) {
	s := noisyScenario()
	rep := mustRun(t, Config{Workers: 2, Trials: 11, Seed: 3, ShardSize: 3}, s)
	if rep.Trials != 11 {
		t.Errorf("trials %d, want 11", rep.Trials)
	}
	m, _ := rep.Metric("trial_mean")
	if m.Count != 11 {
		t.Errorf("trial_mean count %d, want 11", m.Count)
	}
	// Same run serially with the same shard size must agree exactly.
	serial := mustRun(t, Config{Workers: 1, Trials: 11, Seed: 3, ShardSize: 3}, s)
	if !sameReport(serial, rep) {
		t.Error("serial/parallel divergence under custom shard size")
	}
}
