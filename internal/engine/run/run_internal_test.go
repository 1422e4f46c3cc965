package run

import (
	"path/filepath"
	"testing"

	"resilientloc/internal/engine/spec"
)

// TestKeyLocksDrainAfterSuite: the per-key cache locks live only while a
// job holds or waits on them. After an overlapped suite of distinct jobs
// plus one duplicated pair, the lock table is empty, and the duplicate was
// still computed only once.
func TestKeyLocksDrainAfterSuite(t *testing.T) {
	s, err := NewSession(Options{CacheDir: filepath.Join(t.TempDir(), "cache"), SuiteParallel: 0})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []spec.Resolved
	for _, seed := range []int64{1, 2, 3, 4, 1} {
		job, err := spec.Resolve(spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: seed, Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, o := range ExecuteAll(s, jobs, nil) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	if n := len(s.keyLocks); n != 0 {
		t.Errorf("%d key locks outlived the suite, want 0", n)
	}
	if got := s.TrialsExecuted(); got != 8 {
		t.Errorf("suite executed %d trials, want 8 (the duplicate computed once)", got)
	}
}

// TestDispatchOrderLongestFirst pins the scheduler's size heuristic: jobs
// are started in descending trials × shard-count order, with submission
// order breaking ties, so the longest campaigns anchor the critical path.
func TestDispatchOrderLongestFirst(t *testing.T) {
	sized := func(id string, trials, shardSize int) spec.Resolved {
		return spec.Resolved{
			Spec:   spec.JobSpec{Kind: spec.KindScenario, ID: id, Seed: 1},
			Trials: trials, ShardSize: shardSize,
		}
	}
	jobs := []spec.Resolved{
		sized("small", 2, 8),     // 2 trials × 1 shard  = 2
		sized("descents", 17, 1), // 17 trials × 17 shards = 289: heavy per-trial work
		sized("sweep", 36, 8),    // 36 trials × 5 shards = 180
		sized("tie-a", 8, 8),     // 8 × 1 = 8
		sized("tie-b", 8, 8),     // equal cost: submission order must hold
		sized("singleton", 1, 8), // 1 × 1 = 1
	}
	got := dispatchOrder(jobs)
	want := []int{1, 2, 3, 4, 0, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatchOrder = %v, want %v (job %d is %s)", got, want, i, jobs[got[i]].Spec.ID)
		}
	}
}

// TestDispatchOrderHandlesUnsizedJobs: hand-built resolved jobs without
// size metadata sort last instead of crashing the scheduler.
func TestDispatchOrderHandlesUnsizedJobs(t *testing.T) {
	jobs := []spec.Resolved{
		{Spec: spec.JobSpec{ID: "unsized"}},
		{Spec: spec.JobSpec{ID: "sized"}, Trials: 4, ShardSize: 2},
	}
	if got := dispatchOrder(jobs); got[0] != 1 || got[1] != 0 {
		t.Fatalf("dispatchOrder = %v, want the sized job first", got)
	}
}
