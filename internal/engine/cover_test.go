package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"resilientloc/internal/obs"
)

// TestCoverRangesRules pins the shared greedy cover (used by the local
// planner and the coordinator alike), one case per selection rule.
func TestCoverRangesRules(t *testing.T) {
	const trials = 16
	// misfit is banked under 6 trials with a complete tail piece [4, 6) of
	// shard size 4: under 16 trials shard 1 spans [4, 8), so it cannot adapt.
	misfit := &Partial{Scenario: "s", Trials: 6, ShardSize: 4, Lo: 4, Hi: 6,
		Pieces: []ShardPiece{{Shard: 1, Lo: 4, Hi: 6, Complete: true}}}
	for _, tc := range []struct {
		name    string
		cands   []CachedRange
		missing map[int]bool     // fetch returns nil
		custom  map[int]*Partial // fetch returns this instead of a fitting partial
		chosen  []int
		gaps    [][2]int
		fetched []int
	}{
		{
			name:    "widest candidate at the cursor wins",
			cands:   []CachedRange{{0, 4, trials}, {0, 8, trials}},
			chosen:  []int{1},
			gaps:    [][2]int{{8, 16}},
			fetched: []int{1},
		},
		{
			name:    "width tie prefers the job's own trial count",
			cands:   []CachedRange{{0, 8, 8}, {0, 8, trials}},
			chosen:  []int{1},
			gaps:    [][2]int{{8, 16}},
			fetched: []int{1},
		},
		{
			name:    "failed fetch retries the same cursor",
			cands:   []CachedRange{{0, 8, trials}, {0, 4, trials}},
			missing: map[int]bool{0: true},
			chosen:  []int{1},
			gaps:    [][2]int{{4, 16}},
			fetched: []int{0, 1},
		},
		{
			name:    "failed adapt retries the same cursor",
			cands:   []CachedRange{{0, 4, trials}, {4, 6, 6}, {4, 5, 8}},
			custom:  map[int]*Partial{1: misfit},
			chosen:  []int{0, 2},
			gaps:    [][2]int{{5, 16}},
			fetched: []int{0, 1, 2},
		},
		{
			name:    "a gap runs up to the next candidate's start",
			cands:   []CachedRange{{4, 8, trials}, {12, 16, 32}},
			chosen:  []int{0, 1},
			gaps:    [][2]int{{0, 4}, {8, 12}},
			fetched: []int{0, 1},
		},
		{
			name:  "empty and out-of-range candidates are ignored",
			cands: []CachedRange{{3, 3, trials}, {-1, 4, trials}, {8, 20, 32}},
			gaps:  [][2]int{{0, 16}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fetched []int
			cv := CoverRanges(trials, tc.cands, func(i int) *Partial {
				fetched = append(fetched, i)
				if tc.missing[i] {
					return nil
				}
				if p, ok := tc.custom[i]; ok {
					return p
				}
				c := tc.cands[i]
				return &Partial{Scenario: "s", Trials: c.Trials, ShardSize: 4, Lo: c.Lo, Hi: c.Hi}
			})
			if !reflect.DeepEqual(cv.Chosen, tc.chosen) || !reflect.DeepEqual(cv.Gaps, tc.gaps) {
				t.Errorf("chosen %v gaps %v, want %v and %v", cv.Chosen, cv.Gaps, tc.chosen, tc.gaps)
			}
			if !reflect.DeepEqual(fetched, tc.fetched) {
				t.Errorf("fetched %v, want %v (fetching is lazy)", fetched, tc.fetched)
			}
			for k, p := range cv.Parts {
				if p.Trials != trials {
					t.Errorf("part %d stamped %d trials, want %d", k, p.Trials, trials)
				}
			}
			if want := len(tc.custom); len(cv.Rejected) != want {
				t.Errorf("%d rejections (%v), want %d", len(cv.Rejected), cv.Rejected, want)
			}
		})
	}
}

// TestPartialTelemetryMatchesFullRun: a whole run is the [0, N) partial,
// so it moves the engine's trial and shard counters by the trials and
// shards it runs and records one engine.run span with one engine.shard
// child per shard — also when a trial fails, where it counts only the
// trials completed before the failure in its shard.
func TestPartialTelemetryMatchesFullRun(t *testing.T) {
	for _, failAt := range []int{-1, 5} {
		s := Scenario{Name: "telemetry", Trials: 12, Run: func(t *T) error {
			if t.Trial == failAt {
				return errors.New("boom")
			}
			t.Record("x", float64(t.Trial))
			return nil
		}}
		tr := obs.NewTracer()
		trials0, shards0 := obsTrials.Value(), obsShards.Value()
		r, err := NewRunner(Config{Workers: 2, ShardSize: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunCampaignPartialContext(obs.WithTracer(context.Background(), tr), r, ReportCampaign(s), 0, 12)
		if (err != nil) != (failAt >= 0) {
			t.Fatalf("failAt %d: err %v", failAt, err)
		}
		spans := map[string]int{}
		for _, rec := range tr.Export() {
			spans[rec.Name]++
		}
		got := fmt.Sprintf("trials=%d shards=%d spans=%v",
			obsTrials.Value()-trials0, obsShards.Value()-shards0, spans)
		want := "trials=12 shards=3 spans=map[engine.run:1 engine.shard:3]"
		if failAt >= 0 {
			// Shard [4, 8) stops at trial 5 after completing trial 4.
			want = "trials=9 shards=3 spans=map[engine.run:1 engine.shard:3]"
		}
		if got != want {
			t.Errorf("failAt %d: %s, want %s", failAt, got, want)
		}
	}
}
