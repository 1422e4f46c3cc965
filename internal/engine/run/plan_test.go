package run_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"resilientloc/internal/engine/params"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
)

// gridSpec is the planner tests' workhorse: a tiny parameterized grid whose
// trials are cheap enough to run by the thousand, so the 1024→4096
// acceptance geometry is exercised at its real size.
func gridSpec(seed int64, trials int) spec.JobSpec {
	return spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-grid", Seed: seed, Trials: trials,
		Params: params.Map{"rows": params.Num(3), "cols": params.Num(4)}}
}

// TestPlannerExtendsCachedPrefix is the tentpole acceptance check: after a
// 1024-trial run is cached, requesting 4096 trials of the same spec
// computes exactly the 3072 uncovered trials, reports the 1024 reused ones,
// and returns bytes identical to a cold 4096-trial run in a session with no
// cache — at seeds 1 and 5.
func TestPlannerExtendsCachedPrefix(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		dir := filepath.Join(t.TempDir(), "cache")
		s := newSession(t, run.Options{CacheDir: dir})

		if _, info, err := run.ExecuteSpec(s, gridSpec(seed, 1024)); err != nil || info.Cached {
			t.Fatalf("seed %d: prime run: cached=%v err=%v", seed, info.Cached, err)
		}
		if got := s.TrialsExecuted(); got != 1024 {
			t.Fatalf("seed %d: prime run executed %d trials, want 1024", seed, got)
		}

		res, info, err := run.ExecuteSpec(s, gridSpec(seed, 4096))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.TrialsExecuted() - 1024; got != 3072 {
			t.Errorf("seed %d: extension executed %d trials, want exactly 3072", seed, got)
		}
		if info.ReusedTrials != 1024 {
			t.Errorf("seed %d: info reports %d reused trials, want 1024", seed, info.ReusedTrials)
		}
		if info.Cached {
			t.Errorf("seed %d: partially reused run claims to be fully cached", seed)
		}

		cold := newSession(t, run.Options{NoCache: true})
		want, coldInfo, err := run.ExecuteSpec(cold, gridSpec(seed, 4096))
		if err != nil {
			t.Fatal(err)
		}
		if coldInfo.ReusedTrials != 0 {
			t.Errorf("seed %d: cache-less session reused %d trials", seed, coldInfo.ReusedTrials)
		}
		res.ClearExecutionMeta()
		want.ClearExecutionMeta()
		if !jsonEqual(t, res.Report, want.Report) {
			t.Errorf("seed %d: extended run diverged from cold run", seed)
		}
	}
}

// TestPlannerFullCoverageComputesNothing: when cached range entries tile the
// whole request — here the two halves banked by a coordinator-style split —
// the planner merges them without executing a single trial and reports the
// run as cached.
func TestPlannerFullCoverageComputesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	prime := newSession(t, run.Options{CacheDir: dir})
	base := gridSpec(3, 64)
	for _, rg := range [][2]int{{0, 32}, {32, 64}} {
		if _, _, err := run.ExecuteSpec(prime, rangeSpec(base, rg[0], rg[1])); err != nil {
			t.Fatal(err)
		}
	}

	s := newSession(t, run.Options{CacheDir: dir})
	res, info, err := run.ExecuteSpec(s, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TrialsExecuted(); got != 0 {
		t.Errorf("fully covered run executed %d trials, want 0", got)
	}
	if !info.Cached || info.ReusedTrials != 64 {
		t.Errorf("info = %+v, want Cached with 64 reused trials", info)
	}

	cold := newSession(t, run.Options{NoCache: true})
	want, _, err := run.ExecuteSpec(cold, base)
	if err != nil {
		t.Fatal(err)
	}
	res.ClearExecutionMeta()
	want.ClearExecutionMeta()
	if !jsonEqual(t, res.Report, want.Report) {
		t.Error("range-assembled run diverged from direct run")
	}
}

// TestPlannerPropertyRandomSubsets is the planner's correctness property:
// over random surviving cache states — shard-aligned ranges banked under
// the requested trial count and under smaller ones, in any mix — the full
// request always returns bytes identical to a cold run, and the trials it
// executes plus the trials it reuses account for the trial space exactly
// (no trial both computed and reused, none counted twice).
func TestPlannerPropertyRandomSubsets(t *testing.T) {
	const (
		trials    = 96
		shardSize = 8
		seed      = int64(9)
	)
	cold := newSession(t, run.Options{NoCache: true})
	want, _, err := run.ExecuteSpec(cold, gridSpec(seed, trials))
	if err != nil {
		t.Fatal(err)
	}
	want.ClearExecutionMeta()

	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 10; iter++ {
		dir := filepath.Join(t.TempDir(), "cache")
		prime := newSession(t, run.Options{CacheDir: dir})

		// Bank 0..4 random shard-aligned ranges, each under a random full
		// trial count from {trials, trials/2, trials/4} — entries a crashed
		// coordinator or a smaller prior run would have left behind. Ranges
		// may overlap or duplicate across counts; the planner must cope.
		nRanges := rng.Intn(5)
		var banked [][3]int // lo, hi, under
		for i := 0; i < nRanges; i++ {
			under := trials >> uint(rng.Intn(3))
			nShards := under / shardSize
			a, b := rng.Intn(nShards+1), rng.Intn(nShards+1)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			lo, hi := a*shardSize, b*shardSize
			if _, _, err := run.ExecuteSpec(prime, rangeSpec(gridSpec(seed, under), lo, hi)); err != nil {
				t.Fatalf("iter %d: prime range [%d,%d) under %d: %v", iter, lo, hi, under, err)
			}
			banked = append(banked, [3]int{lo, hi, under})
		}

		s := newSession(t, run.Options{CacheDir: dir})
		res, info, err := run.ExecuteSpec(s, gridSpec(seed, trials))
		if err != nil {
			t.Fatalf("iter %d (banked %v): %v", iter, banked, err)
		}
		if got := s.TrialsExecuted(); got+info.ReusedTrials != trials {
			t.Errorf("iter %d (banked %v): executed %d + reused %d != %d trials",
				iter, banked, got, info.ReusedTrials, trials)
		}
		// An entry starting at trial 0 guarantees the planner reuses
		// something: there is always a candidate at the initial cursor.
		for _, b := range banked {
			if b[0] == 0 && info.ReusedTrials == 0 {
				t.Errorf("iter %d (banked %v): prefix entry available but nothing reused", iter, banked)
				break
			}
		}
		res.ClearExecutionMeta()
		if !jsonEqual(t, res.Report, want.Report) {
			t.Errorf("iter %d (banked %v): planned run diverged from cold run", iter, banked)
		}
	}
}

// TestPlannerSkipsRetainedCampaigns: specs with per-trial retention stay on
// the classic execution path — their cache entries carry trial values the
// planner does not handle — and still produce correct, uncached-then-cached
// behavior. KeepTrialValues specs are only cacheable as ranges, so this
// pins the gate rather than planner output.
func TestPlannerSkipsRetainedCampaigns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s := newSession(t, run.Options{CacheDir: dir})
	sp := gridSpec(4, 16)
	sp.KeepTrialValues = true
	if _, info, err := run.ExecuteSpec(s, sp); err != nil || info.ReusedTrials != 0 {
		t.Fatalf("retained run: reused=%d err=%v, want classic path", info.ReusedTrials, err)
	}
	if got := s.TrialsExecuted(); got != 16 {
		t.Errorf("retained run executed %d trials, want 16", got)
	}
}
