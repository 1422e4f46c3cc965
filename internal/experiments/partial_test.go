package experiments

import (
	"encoding/json"
	"math/rand"
	"testing"

	"resilientloc/internal/engine"
)

// defaultCampaign builds e's campaign at its default operating point.
func defaultCampaign(t *testing.T, e Experiment, seed int64) engine.Campaign[*Result] {
	t.Helper()
	p, err := e.Params.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	return e.Campaign(seed, p)
}

// mergedResult runs the campaign as the partials [cuts[i], cuts[i+1]),
// ships each through the wire encoding, merges them and finalizes the
// merged report, as a coordinator does.
func mergedResult(t *testing.T, runner *engine.Runner, c engine.Campaign[*Result], cuts []int) *Result {
	t.Helper()
	var parts []*engine.Partial
	for i := 0; i+1 < len(cuts); i++ {
		p, err := engine.RunCampaignPartial(runner, c, cuts[i], cuts[i+1])
		if err != nil {
			t.Fatalf("%s range [%d,%d): %v", c.Scenario.Name, cuts[i], cuts[i+1], err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back engine.Partial
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, &back)
	}
	rep, err := engine.MergePartials(parts)
	if err != nil {
		t.Fatalf("%s cuts %v: merge: %v", c.Scenario.Name, cuts, err)
	}
	res, err := engine.FinalizeCampaign(c, rep)
	if err != nil {
		t.Fatalf("%s cuts %v: finalize: %v", c.Scenario.Name, cuts, err)
	}
	return res
}

// sameResultJSON fails the test unless got and want encode identically.
func sameResultJSON(t *testing.T, got, want *Result, what string) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("%s: result JSON diverged\n got %s\nwant %s", what, g, w)
	}
}

// TestFigurePartialMergeMatchesGolden: the multi-trial figure campaigns —
// the ones a sharding coordinator actually splits — reproduce their golden
// output exactly when their trial space is partitioned into partial runs,
// shipped through the wire encoding, merged, and finalized. Partitions are
// random (seeded), including single-trial ranges; seeds 1 and 5 match the
// golden corpus pins.
func TestFigurePartialMergeMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, id := range []string{"maxrange", "fig22", "fig23"} {
		if testing.Short() && slowFigs[id] {
			continue
		}
		e, ok := Find(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		for _, seed := range goldenSeeds {
			c := defaultCampaign(t, e, seed)
			runner, err := engine.NewRunner(engine.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			full, err := e.RunWorkers(seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			trials, _ := engine.CampaignConfig(runner, c)
			for iter := 0; iter < 3; iter++ {
				// 2..5 contiguous ranges with random cuts (dropping empties).
				cuts := map[int]bool{0: true, trials: true}
				for i := 0; i < 1+rng.Intn(4); i++ {
					cuts[rng.Intn(trials+1)] = true
				}
				var points []int
				for cp := range cuts {
					points = append(points, cp)
				}
				for i := range points {
					for j := i + 1; j < len(points); j++ {
						if points[j] < points[i] {
							points[i], points[j] = points[j], points[i]
						}
					}
				}
				res := mergedResult(t, runner, c, points)
				if res.Render() != full.Render() {
					t.Fatalf("%s seed %d cuts %v: rendered output diverged from full run", id, seed, points)
				}
				sameResultJSON(t, res, full, id)
			}
		}
	}
}

// TestFigureTrialRangesMerge: a one-trial figure raised to several trials
// (with its seed pin cleared, so the trials differ) crosses a trial range:
// its [0, 1) and [1, 4) partials merge into the full 4-trial result.
func TestFigureTrialRangesMerge(t *testing.T) {
	e, _ := Find("fig11")
	c := defaultCampaign(t, e, testSeed)
	c.Scenario.Trials, c.Scenario.MaxTrials, c.Scenario.SeedFn = 4, 4, nil
	runner, err := engine.NewRunner(engine.Config{Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	full, rep, err := engine.RunCampaign(runner, c)
	if err != nil {
		t.Fatal(err)
	}
	if vs := rep.TrialScalars["error with consistency check"]; len(vs) != 4 || vs[0] == vs[1] {
		t.Fatalf("trials did not differ: %v", vs)
	}
	if got := mergedResult(t, runner, c, []int{0, 1, 4}); got.Render() != full.Render() {
		t.Fatalf("merged 4-trial figure diverged\n--- got ---\n%s--- want ---\n%s", got.Render(), full.Render())
	}
}
