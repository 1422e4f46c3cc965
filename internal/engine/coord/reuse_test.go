package coord_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/params"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
)

// TestReuseExtendsAcrossTrialCounts is the distributed half of the
// prefix-reuse tentpole: a worker whose cache holds a finished 8-trial run
// lets a 16-trial coordination adopt the cached [0, 8) — banked under the
// *other* trial count — and compute only the extension, byte-identical to
// an uninterrupted 16-trial run.
func TestReuseExtendsAcrossTrialCounts(t *testing.T) {
	small := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 8, ShardSize: 2}
	big := small
	big.Trials = 16
	want := normalized(t, localValue(t, big))

	// A full local run of the small spec banks its [0, 8) range entry (the
	// planner's cold path does) in the cache the worker will serve.
	dir := filepath.Join(t.TempDir(), "cache")
	sess, err := run.NewSession(run.Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run.ExecuteSpec(sess, small); err != nil {
		t.Fatal(err)
	}
	worker := newWorker(t, run.Options{CacheDir: dir})

	var warnings strings.Builder
	val, st, err := coord.Execute(context.Background(), big, coord.Options{
		Workers:  []string{worker},
		Reuse:    true,
		Warnings: &warnings,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalized(t, val); got != want {
		t.Errorf("cross-count reuse diverged\n got %s\nwant %s", got, want)
	}
	if st.ReusedTrials != 8 || st.ReusedRanges != 1 {
		t.Errorf("stats %+v, want 8 trials reused in 1 range", st)
	}
	if !strings.Contains(warnings.String(), "reused 8 of 16 trials") {
		t.Errorf("no reuse diagnostic in warnings:\n%s", warnings.String())
	}
}

// TestReuseAdoptsFigureRange: a figure that pins per-trial retention reuses
// a banked range like any scenario does — the worker's probe finds the
// [0, 9) partial of maxrange, and the merged figure still encodes to the
// golden bytes.
func TestReuseAdoptsFigureRange(t *testing.T) {
	fig := spec.JobSpec{Kind: spec.KindFigure, ID: "maxrange", Seed: 1}
	want, err := os.ReadFile(filepath.Join("..", "..", "experiments", "testdata", "golden", "maxrange_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cache")
	sess, err := run.NewSession(run.Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run.ExecuteSpec(sess, subRange(fig, 0, 9)); err != nil {
		t.Fatal(err)
	}
	val, st, err := coord.Execute(context.Background(), fig, coord.Options{
		Workers:  []string{newWorker(t, run.Options{CacheDir: dir})},
		Reuse:    true,
		Warnings: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if val.Figure == nil || figureJSON(t, val.Figure) != string(want) {
		t.Error("figure coordinated over a reused range diverged from golden output")
	}
	if st.ReusedTrials != 9 || st.ReusedRanges != 1 {
		t.Errorf("stats %+v, want 9 trials reused in 1 range", st)
	}
}

// TestReuseAdoptsSameAndCrossCountRanges: one switch covers both kinds of
// surviving entry — a predecessor's ranges of this job's own trial count
// and a smaller run's ranges under another count — and counts each merged
// range once; with the switch off, neither is adopted.
func TestReuseAdoptsSameAndCrossCountRanges(t *testing.T) {
	small := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 5, Trials: 8, ShardSize: 2}
	big := small
	big.Trials = 16
	want := normalized(t, localValue(t, big))

	prime := func(t *testing.T) string {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "cache")
		sess, err := run.NewSession(run.Options{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		// Cross-count material: the full small run's [0, 8) range entry.
		if _, _, err := run.ExecuteSpec(sess, small); err != nil {
			t.Fatal(err)
		}
		// Same-count material: a predecessor's [8, 12) sub-job of the big run.
		if _, _, err := run.ExecuteSpec(sess, subRange(big, 8, 12)); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	val, st, err := coord.Execute(context.Background(), big, coord.Options{
		Workers:  []string{newWorker(t, run.Options{CacheDir: prime(t)})},
		Reuse:    true,
		Warnings: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalized(t, val); got != want {
		t.Errorf("mixed-count reuse diverged\n got %s\nwant %s", got, want)
	}
	if st.ReusedTrials != 12 || st.ReusedRanges != 2 {
		t.Errorf("stats %+v, want 12 trials reused in 2 ranges", st)
	}

	_, st, err = coord.Execute(context.Background(), big, coord.Options{
		Workers:  []string{newWorker(t, run.Options{CacheDir: prime(t)})},
		Warnings: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReusedTrials != 0 || st.ReusedRanges != 0 {
		t.Errorf("reuse-off stats %+v, want nothing adopted", st)
	}
}

// TestReusePropertyRandomSubsets mirrors the crash-resume property for the
// cross-count planner: for any surviving subset of a smaller run's
// shard-aligned ranges, a bigger coordinated run stays byte-identical to an
// uninterrupted one, and every adopted trial is counted exactly once — at
// seeds 1 and 5.
func TestReusePropertyRandomSubsets(t *testing.T) {
	tiling := [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}}
	subsets := [][]int{
		{},           // nothing survived: cold coordination
		{0},          // prefix only
		{2},          // island mid-space
		{0, 1, 2, 3}, // the whole smaller run survived
	}
	for _, seed := range []int64{1, 5} {
		small := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: seed, Trials: 8, ShardSize: 2}
		big := small
		big.Trials = 12
		want := normalized(t, localValue(t, big))
		for _, subset := range subsets {
			dir := filepath.Join(t.TempDir(), "cache")
			sess, err := run.NewSession(run.Options{CacheDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			wantReused := 0
			for _, idx := range subset {
				rg := tiling[idx]
				if _, _, err := run.ExecuteSpec(sess, subRange(small, rg[0], rg[1])); err != nil {
					t.Fatalf("seed %d subset %v: banking [%d, %d): %v", seed, subset, rg[0], rg[1], err)
				}
				wantReused += rg[1] - rg[0]
			}
			val, st, err := coord.Execute(context.Background(), big, coord.Options{
				Workers:  []string{newWorker(t, run.Options{CacheDir: dir})},
				Reuse:    true,
				Warnings: io.Discard,
			})
			if err != nil {
				t.Fatalf("seed %d subset %v: %v", seed, subset, err)
			}
			if got := normalized(t, val); got != want {
				t.Errorf("seed %d subset %v: reused result diverged\n got %s\nwant %s", seed, subset, got, want)
			}
			if st.ReusedTrials != wantReused || st.ReusedRanges != len(subset) {
				t.Errorf("seed %d subset %v: reused %d trials in %d ranges, want %d in %d",
					seed, subset, st.ReusedTrials, st.ReusedRanges, wantReused, len(subset))
			}
		}
	}
}

// TestCoordExecuteAuto: the distributed auto-trials ladder runs each round
// through the fleet, reuses each round as the next one's prefix, and ends
// byte-identical to an explicit fixed-count coordination.
func TestCoordExecuteAuto(t *testing.T) {
	grid := params.Map{"rows": params.Num(5), "cols": params.Num(6)}
	auto := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-grid", Seed: 2, Params: grid,
		AutoTrials: &spec.AutoTrials{CITarget: 1e-12, Metric: "avg_error_m", MaxTrials: 32}}
	fixed := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-grid", Seed: 2, Params: grid, Trials: 32}
	want := normalized(t, localValue(t, fixed))

	worker := newWorker(t, run.Options{CacheDir: filepath.Join(t.TempDir(), "cache")})
	var warnings strings.Builder
	val, st, err := coord.ExecuteAuto(context.Background(), auto, coord.Options{
		Workers:  []string{worker},
		Reuse:    true,
		Warnings: &warnings,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalized(t, val); got != want {
		t.Errorf("distributed auto ladder diverged from fixed 32-trial coordination\n got %s\nwant %s", got, want)
	}
	if val.Report.Trials != 32 {
		t.Errorf("ladder ended at %d trials, want the 32-trial cap", val.Report.Trials)
	}
	if st.ReusedTrials == 0 {
		t.Errorf("later rounds never reused earlier ones: %+v", st)
	}
	if !strings.Contains(warnings.String(), "above target") {
		t.Errorf("missed-target warning not printed:\n%s", warnings.String())
	}

	// A fixed-count spec through ExecuteAuto is a plain Execute.
	val, _, err = coord.ExecuteAuto(context.Background(), fixed, coord.Options{
		Workers:  []string{newWorker(t, run.Options{NoCache: true})},
		Warnings: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalized(t, val); got != want {
		t.Errorf("ExecuteAuto with a fixed spec diverged from Execute\n got %s\nwant %s", got, want)
	}
}

// TestCoordExecuteAutoProgressPerRound is the regression test for auto
// rounds sharing one progress line: each round of the ladder is its own job
// to the renderer, so a non-terminal log shows every round's completion
// line, each followed by that round's worker rows.
func TestCoordExecuteAutoProgressPerRound(t *testing.T) {
	grid := params.Map{"rows": params.Num(5), "cols": params.Num(6)}
	auto := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-grid", Seed: 2, Params: grid,
		AutoTrials: &spec.AutoTrials{CITarget: 1e-12, Metric: "avg_error_m", MaxTrials: 32}}
	worker := newWorker(t, run.Options{CacheDir: filepath.Join(t.TempDir(), "cache")})
	var buf strings.Builder
	if _, _, err := coord.ExecuteAuto(context.Background(), auto, coord.Options{
		Workers: []string{worker}, Reuse: true, Warnings: io.Discard, Progress: &buf,
	}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	rest := out
	for _, n := range []int{8, 16, 32} {
		done := fmt.Sprintf(" %4d/%d trials\n", n, n)
		i := strings.Index(rest, done)
		if i < 0 {
			t.Fatalf("no completion line %q after the previous round's in:\n%s", done, out)
		}
		rest = rest[i+len(done):]
		if !strings.HasPrefix(rest, "  worker") || !strings.Contains(rest, "  "+worker) {
			t.Errorf("round %d's completion line is not followed by its worker rows:\n%s", n, out)
		}
	}
}
