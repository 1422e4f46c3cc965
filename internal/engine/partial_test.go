package engine

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// jsonRoundTrip pushes a Partial through its wire encoding, as the
// coordinator does between processes.
func jsonRoundTrip(t *testing.T, p *Partial) *Partial {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal partial: %v", err)
	}
	var back Partial
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal partial: %v", err)
	}
	return &back
}

// randomPartition cuts [0, trials) into 1..8 contiguous ranges. Cut points
// are drawn with replacement, so adjacent duplicates — which would create
// empty ranges — occur and are dropped, and single-trial ranges are common.
func randomPartition(rng *rand.Rand, trials int) [][2]int {
	k := 1 + rng.Intn(8)
	cuts := map[int]bool{0: true, trials: true}
	for i := 0; i < k-1; i++ {
		cuts[rng.Intn(trials+1)] = true
	}
	points := make([]int, 0, len(cuts))
	for c := range cuts {
		points = append(points, c)
	}
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			if points[j] < points[i] {
				points[i], points[j] = points[j], points[i]
			}
		}
	}
	var ranges [][2]int
	for i := 0; i+1 < len(points); i++ {
		if points[i] < points[i+1] {
			ranges = append(ranges, [2]int{points[i], points[i+1]})
		}
	}
	return ranges
}

// runPartial runs trials [lo, hi) of s as its report campaign.
func runPartial(r *Runner, s Scenario, lo, hi int) (*Partial, error) {
	return RunCampaignPartial(r, ReportCampaign(s), lo, hi)
}

// TestPartialMergeMatchesFullRun is the distribution property: for random
// partitions of the trial space — shard-aligned or not, down to single-trial
// ranges — running each range partially, shipping the partials over the
// wire encoding, and merging them reproduces the whole run exactly, with and
// without per-trial names (perTrial), at several shard sizes and seeds.
func TestPartialMergeMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range []Scenario{noisyScenario(), perTrial(noisyScenario())} {
		for _, tc := range []struct {
			trials, shardSize int
		}{
			{100, 8},  // default-style shards, boundaries cut shards
			{37, 7},   // ragged tail shard
			{10, 1},   // every range is shard-aligned
			{20, 100}, // a single shard cut into fragments
		} {
			cfg := Config{Seed: 5, Trials: tc.trials, ShardSize: tc.shardSize}
			full := mustRun(t, cfg, s)
			fullJSON, _ := json.Marshal(comparable(full))
			runner, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for iter := 0; iter < 12; iter++ {
				ranges := randomPartition(rng, tc.trials)
				parts := make([]*Partial, 0, len(ranges))
				for _, rg := range ranges {
					p, err := runPartial(runner, s, rg[0], rg[1])
					if err != nil {
						t.Fatalf("%s trials=%d shard=%d range %v: %v", s.Name, tc.trials, tc.shardSize, rg, err)
					}
					parts = append(parts, jsonRoundTrip(t, p))
				}
				// Merge in shuffled order: MergePartials sorts by range.
				rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
				merged, err := MergePartials(parts)
				if err != nil {
					t.Fatalf("%s trials=%d shard=%d ranges %v: merge: %v", s.Name, tc.trials, tc.shardSize, ranges, err)
				}
				if !sameReport(merged, full) {
					t.Fatalf("%s trials=%d shard=%d ranges %v: merged report diverged from full run",
						s.Name, tc.trials, tc.shardSize, ranges)
				}
				mergedJSON, _ := json.Marshal(comparable(merged))
				if string(mergedJSON) != string(fullJSON) {
					t.Fatalf("%s trials=%d shard=%d ranges %v: merged JSON diverged\n got %s\nwant %s",
						s.Name, tc.trials, tc.shardSize, ranges, mergedJSON, fullJSON)
				}
			}
		}
	}
}

// TestPartialSingleRangeIsFullRun: one partial covering [0, trials) merges
// to the full run — the degenerate one-worker deployment.
func TestPartialSingleRangeIsFullRun(t *testing.T) {
	s := noisyScenario()
	cfg := Config{Seed: 1, Trials: 24, ShardSize: 5}
	full := mustRun(t, cfg, s)
	runner, _ := NewRunner(cfg)
	p, err := runPartial(runner, s, 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergePartials([]*Partial{jsonRoundTrip(t, p)})
	if err != nil {
		t.Fatal(err)
	}
	if !sameReport(merged, full) {
		t.Fatal("single full-range partial diverged from full run")
	}
}

// TestPartialProgressTotals: partial-run progress counts against the range
// size, not the full trial count, and sums to it.
func TestPartialProgressTotals(t *testing.T) {
	s := noisyScenario()
	var last, total int
	runner, _ := NewRunner(Config{Seed: 1, Trials: 40, ShardSize: 4,
		Workers: 1, Progress: func(d, tot int) { last, total = d, tot }})
	if _, err := runPartial(runner, s, 10, 25); err != nil {
		t.Fatal(err)
	}
	if last != 15 || total != 15 {
		t.Errorf("progress ended %d/%d, want 15/15", last, total)
	}
}

// TestRunPartialInvalidRange: out-of-bounds and empty ranges are rejected.
func TestRunPartialInvalidRange(t *testing.T) {
	s := noisyScenario()
	runner, _ := NewRunner(Config{Seed: 1, Trials: 10})
	for _, rg := range [][2]int{{-1, 5}, {5, 5}, {6, 4}, {0, 11}} {
		if _, err := runPartial(runner, s, rg[0], rg[1]); err == nil {
			t.Errorf("range %v accepted", rg)
		}
	}
}

// TestMergePartialsValidation: gaps, overlaps, mismatched job identity, and
// incomplete coverage are merge errors, never silently wrong aggregates.
func TestMergePartialsValidation(t *testing.T) {
	s := noisyScenario()
	runner, _ := NewRunner(Config{Seed: 1, Trials: 20, ShardSize: 4})
	part := func(lo, hi int) *Partial {
		p, err := runPartial(runner, s, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := MergePartials(nil); err == nil {
		t.Error("empty partial set accepted")
	}
	if _, err := MergePartials([]*Partial{part(0, 10)}); err == nil {
		t.Error("incomplete coverage accepted")
	}
	if _, err := MergePartials([]*Partial{part(0, 10), part(12, 20)}); err == nil {
		t.Error("gap accepted")
	}
	if _, err := MergePartials([]*Partial{part(0, 12), part(10, 20)}); err == nil {
		t.Error("overlap accepted")
	}
	other := part(10, 20)
	other.Seed = 99
	if _, err := MergePartials([]*Partial{part(0, 10), other}); err == nil {
		t.Error("mismatched seed accepted")
	}
	sized := part(10, 20)
	sized.ShardSize = 5
	if _, err := MergePartials([]*Partial{part(0, 10), sized}); err == nil {
		t.Error("mismatched shard size accepted")
	}
}

// TestPiecesRawExactlyWhereRangesCut pins the one piece rule: after the wire
// encoding, a piece ships raw trial records exactly where its range cuts
// its shard, and its aggregate state everywhere else. A [0, 5)+[5, 16)
// split of 16 trials in default shards of 8 cuts only shard 0, and the
// split merges to the unsplit run's bytes.
func TestPiecesRawExactlyWhereRangesCut(t *testing.T) {
	s := perTrial(noisyScenario())
	runner, _ := NewRunner(Config{Seed: 1, Trials: 16})
	var parts []*Partial
	for _, rg := range [][2]int{{0, 5}, {5, 16}} {
		p, err := runPartial(runner, s, rg[0], rg[1])
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, jsonRoundTrip(t, p))
	}
	var got []string
	for _, p := range parts {
		for _, piece := range p.Pieces {
			switch {
			case piece.Complete && piece.Raw == nil && piece.Metrics != nil && piece.Series != nil:
				got = append(got, fmt.Sprintf("complete %d [%d, %d)", piece.Shard, piece.Lo, piece.Hi))
			case !piece.Complete && piece.Metrics == nil && piece.Series == nil && len(piece.Raw) == piece.Hi-piece.Lo:
				got = append(got, fmt.Sprintf("raw %d [%d, %d)", piece.Shard, piece.Lo, piece.Hi))
			default:
				t.Fatalf("shard %d [%d, %d): complete %v with %d metrics, %d series and %d raw trials",
					piece.Shard, piece.Lo, piece.Hi, piece.Complete, len(piece.Metrics), len(piece.Series), len(piece.Raw))
			}
		}
	}
	if want := "[raw 0 [0, 5) raw 0 [5, 8) complete 1 [8, 16)]"; fmt.Sprint(got) != want {
		t.Fatalf("pieces %v, want %s", got, want)
	}
	merged, err := MergePartials(parts)
	if err != nil {
		t.Fatal(err)
	}
	mergedJSON, _ := json.Marshal(comparable(merged))
	fullJSON, _ := json.Marshal(comparable(mustRun(t, Config{Seed: 1, Trials: 16}, s)))
	if string(mergedJSON) != string(fullJSON) {
		t.Fatalf("split run diverged from the unsplit run\n got %s\nwant %s", mergedJSON, fullJSON)
	}
}

// TestRunCampaignPartialAppliesOverrides: the campaign's shard pinning
// applies to partial runs exactly as it does to full ones, so the partials
// a distributed figure job produces merge against the figure's own shard
// geometry.
func TestRunCampaignPartialAppliesOverrides(t *testing.T) {
	c := Campaign[*Report]{
		Scenario:  perTrial(noisyScenario()),
		ShardSize: 1,
		Finalize:  func(rep *Report) (*Report, error) { return rep, nil },
	}
	runner, _ := NewRunner(Config{Seed: 3, Trials: 6, ShardSize: 99})
	p, err := RunCampaignPartial(runner, c, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.ShardSize != 1 {
		t.Fatalf("partial geometry %+v, want the campaign's shard size 1", p)
	}

	// Full distributed cycle through the campaign: partials -> merge ->
	// finalize equals RunCampaign.
	full, _, err := RunCampaign(runner, c)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunCampaignPartial(runner, c, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaignPartial(runner, c, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MergePartials([]*Partial{jsonRoundTrip(t, a), jsonRoundTrip(t, b)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := FinalizeCampaign(c, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !sameReport(res, full) {
		t.Fatal("distributed campaign cycle diverged from RunCampaign")
	}
}

// TestAdaptPartial: restamping a partial's full trial count is valid exactly
// when every complete piece still spans its shard under the new count — the
// geometry check behind the prefix-reuse planner's cross-count extension.
func TestAdaptPartial(t *testing.T) {
	s := noisyScenario()
	part := func(trials, shardSize, lo, hi int) *Partial {
		runner, err := NewRunner(Config{Seed: 1, Trials: trials, ShardSize: shardSize})
		if err != nil {
			t.Fatal(err)
		}
		p, err := runPartial(runner, s, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// A shard-aligned prefix grows cleanly: every complete shard keeps its
	// bounds, only the stamp changes.
	p := part(16, 4, 0, 8)
	if err := AdaptPartial(p, 32); err != nil {
		t.Fatalf("aligned grow: %v", err)
	}
	if p.Trials != 32 {
		t.Fatalf("aligned grow left Trials=%d, want 32", p.Trials)
	}

	// Same count is a no-op.
	p = part(16, 4, 0, 8)
	if err := AdaptPartial(p, 16); err != nil || p.Trials != 16 {
		t.Fatalf("same-count adapt: err=%v Trials=%d", err, p.Trials)
	}

	// The ragged tail shard of a 10-trial run ([8, 10) of shard 2) was
	// complete only because 10 trials clipped the shard; under 32 trials
	// shard 2 spans [8, 12), so the piece no longer carries the shard's full
	// aggregate and the adapt must refuse.
	p = part(10, 4, 0, 10)
	if err := AdaptPartial(p, 32); err == nil || !strings.Contains(err.Error(), "no longer spans") {
		t.Fatalf("clipped tail shard: err %v, want refusal", err)
	}

	// Shrinking below the partial's own range is out of bounds.
	p = part(16, 4, 8, 16)
	if err := AdaptPartial(p, 12); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("shrink below Hi: err %v, want rejection", err)
	}

	// Degenerate inputs.
	if err := AdaptPartial(nil, 8); err == nil {
		t.Error("nil partial accepted")
	}
	p = part(16, 4, 0, 8)
	if err := AdaptPartial(p, 0); err == nil {
		t.Error("zero trial count accepted")
	}
}

// TestAdaptPartialMergesIntoLargerRun: the end-to-end property the planner
// relies on — a prefix partial banked under a small trial count, adapted to
// a larger one, merges with the freshly computed remainder into exactly the
// larger run's report.
func TestAdaptPartialMergesIntoLargerRun(t *testing.T) {
	s := noisyScenario()
	small, err := NewRunner(Config{Seed: 7, Trials: 8, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := runPartial(small, s, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	prefix = jsonRoundTrip(t, prefix)
	if err := AdaptPartial(prefix, 20); err != nil {
		t.Fatal(err)
	}

	big, err := NewRunner(Config{Seed: 7, Trials: 20, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	rest, err := runPartial(big, s, 8, 20)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergePartials([]*Partial{prefix, jsonRoundTrip(t, rest)})
	if err != nil {
		t.Fatal(err)
	}
	full := mustRun(t, Config{Seed: 7, Trials: 20, ShardSize: 4}, s)
	if !sameReport(merged, full) {
		t.Fatal("adapted prefix + remainder diverged from the full 20-trial run")
	}
}
