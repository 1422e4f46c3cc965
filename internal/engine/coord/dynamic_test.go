package coord_test

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/fleet"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
)

// subRange returns the spec restricted to [lo, hi) — how a predecessor
// coordinator's sub-jobs bank range-keyed cache entries.
func subRange(sp spec.JobSpec, lo, hi int) spec.JobSpec {
	sp.TrialRange = &spec.Range{Lo: lo, Hi: hi}
	return sp
}

// TestDynamicStealingByteIdentity: an idle fast worker
// steals unsubmitted work from a slow worker's assignment, and the merged
// result is still byte-identical to the local run — stealing moves only
// work that never started, so no trial is computed twice.
func TestDynamicStealingByteIdentity(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 2, Trials: 16, ShardSize: 1}
	want := normalized(t, localValue(t, sp))

	fast := newWorker(t, run.Options{NoCache: true})
	slow := slowEventsProxy(t, newWorker(t, run.Options{NoCache: true}), 400*time.Millisecond)

	val, st, err := coord.Execute(context.Background(), sp, coord.Options{
		Workers:      []string{slow, fast},
		StallTimeout: -1, // isolate stealing from hedging
		Warnings:     io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalized(t, val); got != want {
		t.Errorf("stolen-work result diverged\n got %s\nwant %s", got, want)
	}
	if st.Steals == 0 {
		t.Errorf("fast worker never stole from the slow assignment: %+v", st)
	}
	if st.Retries != 0 || st.Hedges != 0 || st.DedupLosses != 0 {
		t.Errorf("stealing should not show up as retries/hedges: %+v", st)
	}
	stealRows := 0
	for _, ws := range st.Scores {
		if ws.Steals > 0 {
			stealRows++
			if ws.Worker != fast {
				t.Errorf("steals credited to %s, want the fast worker %s", ws.Worker, fast)
			}
		}
	}
	if stealRows == 0 {
		t.Errorf("scoreboard shows no steals: %+v", st.Scores)
	}
}

// TestDynamicMidRunJoin: the coordinator discovers its fleet from a
// registry and keeps polling it, so a worker announced while the job runs
// is put to work by stealing — and the result stays byte-identical.
func TestDynamicMidRunJoin(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 3, Trials: 16, ShardSize: 1}
	want := normalized(t, localValue(t, sp))

	registry := newWorker(t, run.Options{NoCache: true}) // any locd serves the registry
	slow := slowEventsProxy(t, registry, 400*time.Millisecond)
	joiner := newWorker(t, run.Options{NoCache: true})

	ctx := context.Background()
	if err := fleet.PostAnnounce(ctx, nil, registry, fleet.Announce{URL: slow, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		_ = fleet.PostAnnounce(ctx, nil, registry, fleet.Announce{URL: joiner, Capacity: 1})
	}()

	var warnings strings.Builder
	val, st, err := coord.Execute(ctx, sp, coord.Options{
		Discover:         registry,
		DiscoverInterval: 50 * time.Millisecond,
		StallTimeout:     -1,
		Warnings:         &warnings,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalized(t, val); got != want {
		t.Errorf("mid-run-join result diverged\n got %s\nwant %s", got, want)
	}
	if st.Joined == 0 {
		t.Errorf("joiner was never discovered: %+v\nwarnings:\n%s", st, warnings.String())
	}
	if st.Steals == 0 {
		t.Errorf("joiner arrived with no assignment and should have stolen work: %+v", st)
	}
	if !strings.Contains(warnings.String(), "joined the fleet mid-run") {
		t.Errorf("no join diagnostic in warnings:\n%s", warnings.String())
	}
}

// TestCrashResumeProperty is the crash-recovery acceptance property: for
// any subset of the range-keyed cache entries a dead coordinator's workers
// banked, a coordinator with Reuse on merges the surviving entries,
// re-executes only the gaps, and produces bytes identical to an
// uninterrupted run — at seeds 1 and 5.
func TestCrashResumeProperty(t *testing.T) {
	tiling := [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 12}}
	subsets := [][]int{
		{},           // nothing survived: plain dynamic run
		{0},          // prefix only
		{3},          // suffix only
		{1, 3},       // disjoint islands: every gap boundary mid-space
		{0, 1, 2, 3}, // everything survived: no re-execution at all
	}
	for _, seed := range []int64{1, 5} {
		sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: seed, Trials: 12, ShardSize: 2}
		want := normalized(t, localValue(t, sp))
		for _, subset := range subsets {
			name := fmt.Sprintf("seed%d_subset%v", seed, subset)
			// The worker and the populating session share one cache dir —
			// and, being the same binary, one cache fingerprint — exactly
			// like a worker that outlived its coordinator.
			dir := filepath.Join(t.TempDir(), "cache")
			sess, err := run.NewSession(run.Options{CacheDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			wantResumed := 0
			for _, idx := range subset {
				rg := tiling[idx]
				if _, _, err := run.ExecuteSpec(sess, subRange(sp, rg[0], rg[1])); err != nil {
					t.Fatalf("%s: banking [%d, %d): %v", name, rg[0], rg[1], err)
				}
				wantResumed += rg[1] - rg[0]
			}
			worker := newWorker(t, run.Options{CacheDir: dir})

			val, st, err := coord.Execute(context.Background(), sp, coord.Options{
				Workers:  []string{worker},
				Reuse:    true,
				Warnings: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := normalized(t, val); got != want {
				t.Errorf("%s: resumed result diverged\n got %s\nwant %s", name, got, want)
			}
			if st.ReusedTrials != wantResumed || st.ReusedRanges != len(subset) {
				t.Errorf("%s: resumed %d trials in %d ranges, want %d in %d",
					name, st.ReusedTrials, st.ReusedRanges, wantResumed, len(subset))
			}
		}
	}
}

// TestResumeFullEntry: when some worker's cache already holds the finished
// full result, a coordinator with Reuse on returns it without submitting
// any work.
func TestResumeFullEntry(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 8, ShardSize: 2}
	want := normalized(t, localValue(t, sp))

	dir := filepath.Join(t.TempDir(), "cache")
	sess, err := run.NewSession(run.Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run.ExecuteSpec(sess, sp); err != nil {
		t.Fatal(err)
	}
	worker := newWorker(t, run.Options{CacheDir: dir})

	var warnings strings.Builder
	val, st, err := coord.Execute(context.Background(), sp, coord.Options{
		Workers:  []string{worker},
		Reuse:    true,
		Warnings: &warnings,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalized(t, val); got != want {
		t.Errorf("full-entry resume diverged\n got %s\nwant %s", got, want)
	}
	if st.ReusedTrials != 8 {
		t.Errorf("stats %+v, want the full 8 trials resumed", st)
	}
	if !strings.Contains(warnings.String(), "reused the complete result") {
		t.Errorf("no full-resume diagnostic:\n%s", warnings.String())
	}
}

// TestResumeOffIgnoresCaches: without Options.Reuse the coordinator
// executes everything even when range entries exist — the cold run
// -reuse=false asks for.
func TestResumeOffIgnoresCaches(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 4, Trials: 8, ShardSize: 2}
	dir := filepath.Join(t.TempDir(), "cache")
	sess, err := run.NewSession(run.Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run.ExecuteSpec(sess, subRange(sp, 0, 4)); err != nil {
		t.Fatal(err)
	}
	worker := newWorker(t, run.Options{CacheDir: dir})
	_, st, err := coord.Execute(context.Background(), sp,
		coord.Options{Workers: []string{worker}, Warnings: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReusedTrials != 0 || st.ReusedRanges != 0 {
		t.Errorf("resume ran without being asked: %+v", st)
	}
}
