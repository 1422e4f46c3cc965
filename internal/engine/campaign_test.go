package engine

import (
	"fmt"
	"testing"
)

// countScenario records its trial index as a scalar.
func countScenario(trials int) Scenario {
	return Scenario{
		Name:   "count",
		Trials: trials,
		Run: func(t *T) error {
			t.Record("trial", float64(t.Trial))
			return nil
		},
	}
}

func TestRunCampaignFinalizes(t *testing.T) {
	r, err := NewRunner(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign[int]{
		Scenario:        countScenario(6),
		KeepTrialValues: true,
		Finalize: func(rep *Report) (int, error) {
			sum := 0
			for i, v := range rep.TrialScalars["trial"] {
				if v != float64(i) {
					return 0, fmt.Errorf("trial %d recorded %v", i, v)
				}
				sum += 10 * int(v)
			}
			return sum, nil
		},
	}
	got, rep, err := RunCampaign(r, c)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10 * (0 + 1 + 2 + 3 + 4 + 5); got != want {
		t.Errorf("finalized value %d, want %d", got, want)
	}
	if rep == nil || rep.Trials != 6 {
		t.Errorf("unexpected report %+v", rep)
	}
}

func TestRunCampaignRequiresFinalize(t *testing.T) {
	r, err := NewRunner(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunCampaign(r, Campaign[int]{Scenario: countScenario(2)}); err == nil {
		t.Error("want error for missing Finalize")
	}
}

func TestCampaignShardOverride(t *testing.T) {
	r, err := NewRunner(Config{Seed: 1, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign[int]{Scenario: countScenario(8), ShardSize: 1,
		Finalize: func(rep *Report) (int, error) { return 0, nil }}
	if trials, shard := CampaignConfig(r, c); trials != 8 || shard != 1 {
		t.Errorf("effective (trials, shard) = (%d, %d), want (8, 1)", trials, shard)
	}
	// Without a campaign override the runner's shard size stands.
	c.ShardSize = 0
	if _, shard := CampaignConfig(r, c); shard != 4 {
		t.Errorf("effective shard %d, want runner's 4", shard)
	}
}

func TestReportCampaignReturnsReport(t *testing.T) {
	r, err := NewRunner(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, raw, err := RunCampaign(r, ReportCampaign(countScenario(4)))
	if err != nil {
		t.Fatal(err)
	}
	if rep != raw {
		t.Error("ReportCampaign should finalize to the report itself")
	}
	if m, ok := rep.Metric("trial"); !ok || m.Count != 4 {
		t.Errorf("unexpected metric %+v", m)
	}
}

func TestProgressCounterReachesTotal(t *testing.T) {
	var calls []int
	r, err := NewRunner(Config{Seed: 1, Workers: 3, ShardSize: 2, Progress: func(done, total int) {
		if total != 10 {
			t.Errorf("total %d, want 10", total)
		}
		calls = append(calls, done)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(countScenario(10)); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 5 { // ceil(10/2) shards
		t.Fatalf("progress called %d times, want 5: %v", len(calls), calls)
	}
	last := 0
	for _, d := range calls {
		if d <= last {
			t.Errorf("progress not monotonic: %v", calls)
		}
		last = d
	}
	if last != 10 {
		t.Errorf("final progress %d, want 10", last)
	}
}
