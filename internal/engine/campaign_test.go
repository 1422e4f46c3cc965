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
		Scenario: perTrial(countScenario(6)),
		Finalize: func(rep *Report) (int, error) {
			sum := 0
			for i := 0; i < rep.Trials; i++ {
				m, _ := rep.Metric(trialName("trial", i))
				if m.Count != 1 || m.Mean != float64(i) {
					return 0, fmt.Errorf("trial %d recorded %+v", i, m)
				}
				sum += 10 * int(m.Mean)
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
	c := Campaign[int]{Scenario: countScenario(8), ShardSize: 1,
		Finalize: func(rep *Report) (int, error) { return 0, nil }}
	if trials, shard := c.Geometry(0, 4); trials != 8 || shard != 1 {
		t.Errorf("effective (trials, shard) = (%d, %d), want (8, 1)", trials, shard)
	}
	// Without a campaign override the runner's shard size stands, and
	// without either the default does.
	c.ShardSize = 0
	if _, shard := c.Geometry(0, 4); shard != 4 {
		t.Errorf("effective shard %d, want runner's 4", shard)
	}
	if _, shard := c.Geometry(0, 0); shard != DefaultShardSize {
		t.Errorf("effective shard %d, want the default %d", shard, DefaultShardSize)
	}
	// A trial override stands unless the campaign fixes its trial count;
	// MaxTrials caps either.
	if trials, _ := c.Geometry(5, 0); trials != 5 {
		t.Errorf("effective trials %d, want the override 5", trials)
	}
	c.FixedTrials = true
	if trials, _ := c.Geometry(5, 0); trials != 8 {
		t.Errorf("fixed campaign ran %d trials, want its own 8", trials)
	}
	c.FixedTrials, c.Scenario.MaxTrials = false, 6
	if trials, _ := c.Geometry(20, 0); trials != 6 {
		t.Errorf("effective trials %d, want MaxTrials 6", trials)
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
	if _, err := runReport(r, countScenario(10)); err != nil {
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
