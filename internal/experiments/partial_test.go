package experiments

import (
	"encoding/json"
	"math/rand"
	"os"
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
			trials, _ := c.Geometry(0, 0)
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
// (each drawing its own stream, so the trials differ) crosses a trial range:
// its [0, 1) and [1, 4) partials merge into the full 4-trial result.
func TestFigureTrialRangesMerge(t *testing.T) {
	e, _ := Find("fig11")
	c := defaultCampaign(t, e, testSeed)
	c.Scenario.Trials, c.Scenario.MaxTrials = 4, 4
	runner, err := engine.NewRunner(engine.Config{Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	full, rep, err := engine.RunCampaign(runner, c)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := rep.Metric("error with consistency check"); m.Count != 4 || m.StdDev <= 0 {
		t.Fatalf("trials did not differ: %+v", m)
	}
	if got := mergedResult(t, runner, c, []int{0, 1, 4}); got.Render() != full.Render() {
		t.Fatalf("merged 4-trial figure diverged\n--- got ---\n%s--- want ---\n%s", got.Render(), full.Render())
	}
}

// TestEnsembleFigurePartialsShipAggregates: the ensemble figures pin one
// trial per shard, so their [0, N) partial is all complete pieces after the
// wire encoding (a piece is raw only where a range cuts its shard), and it
// merges to the golden bytes. fig23's per-trial series hold only the
// plotted epochs, which keeps its partial small.
func TestEnsembleFigurePartialsShipAggregates(t *testing.T) {
	for _, id := range []string{"fig22", "fig23"} {
		if testing.Short() && slowFigs[id] {
			continue
		}
		e, _ := Find(id)
		c := defaultCampaign(t, e, testSeed)
		runner, err := engine.NewRunner(engine.Config{Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		trials, _ := c.Geometry(0, 0)
		p, err := engine.RunCampaignPartial(runner, c, 0, trials)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if id == "fig23" && len(b) >= 100_000 {
			t.Errorf("fig23 partial is %d bytes, want under 100 KB", len(b))
		}
		var back engine.Partial
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back.ShardSize != 1 || len(back.Pieces) != trials {
			t.Fatalf("%s: shard size %d with %d pieces, want %d one-trial shards", id, back.ShardSize, len(back.Pieces), trials)
		}
		for _, piece := range back.Pieces {
			if !piece.Complete || piece.Raw != nil {
				t.Fatalf("%s shard %d: complete %v with %d raw trials, want its aggregate only", id, piece.Shard, piece.Complete, len(piece.Raw))
			}
		}
		rep, err := engine.MergePartials([]*engine.Partial{&back})
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.FinalizeCampaign(c, rep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(goldenPath(id, testSeed))
		if err != nil {
			t.Fatal(err)
		}
		if string(append(got, '\n')) != string(want) {
			t.Fatalf("%s: merged partial diverged from its golden", id)
		}
	}
}
