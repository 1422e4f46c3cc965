package engine

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// busyScenario records how many of its trials run concurrently.
func busyScenario(cur, peak *atomic.Int32) Scenario {
	return Scenario{
		Name:   "busy",
		Trials: 24,
		Run: func(t *T) error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		},
	}
}

// TestBudgetCapsConcurrentShards runs two over-provisioned runners against
// a 2-slot budget and checks that no more than 2 trials ever execute at
// once process-wide, even though the runners together spawn 8 workers.
func TestBudgetCapsConcurrentShards(t *testing.T) {
	budget := NewBudget(2)
	var cur, peak atomic.Int32
	s := busyScenario(&cur, &peak)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r, err := NewRunner(Config{Workers: 4, Seed: seed, ShardSize: 1, Budget: budget})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := runReport(r, s); err != nil {
				t.Error(err)
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Errorf("peak concurrent trials %d exceeds budget of 2", got)
	}
}

// TestBudgetPreservesResults checks the budget bounds scheduling only: a
// budgeted run's aggregates are identical to an unbudgeted one's.
func TestBudgetPreservesResults(t *testing.T) {
	s, _, err := BuildScenario("multilat-town", nil)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Workers: 4, Trials: 8, Seed: 3, ShardSize: 2}
	budgeted := base
	budgeted.Budget = NewBudget(2)
	run := func(cfg Config) *Report {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runReport(r, s)
		if err != nil {
			t.Fatal(err)
		}
		rep.ClearExecutionMeta() // only workers/elapsed may differ
		return rep
	}
	a, b := run(base), run(budgeted)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("budgeted run diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestProgressMonotonicAcrossConcurrentCampaigns runs several campaigns
// concurrently on the shared budget and checks each campaign's Progress
// callback reports a monotonically non-decreasing done counter that lands
// exactly on its total.
func TestProgressMonotonicAcrossConcurrentCampaigns(t *testing.T) {
	budget := NewBudget(runtime.GOMAXPROCS(0))
	var cur, peak atomic.Int32
	s := busyScenario(&cur, &peak)
	const campaigns = 3
	var wg sync.WaitGroup
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			last := -1
			var mu sync.Mutex
			cfg := Config{Workers: 4, Seed: seed, ShardSize: 2, Budget: budget,
				Progress: func(done, total int) {
					mu.Lock()
					defer mu.Unlock()
					if done < last {
						t.Errorf("seed %d: done went backwards: %d after %d", seed, done, last)
					}
					last = done
					if total != 24 {
						t.Errorf("seed %d: total = %d, want 24", seed, total)
					}
				}}
			r, err := NewRunner(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := runReport(r, s); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if last != 24 {
				t.Errorf("seed %d: final done = %d, want 24", seed, last)
			}
		}(int64(i + 1))
	}
	wg.Wait()
}

func TestNewBudgetClampsAndSizes(t *testing.T) {
	if got := NewBudget(0).Cap(); got != 1 {
		t.Errorf("NewBudget(0).Cap() = %d, want 1", got)
	}
	if got := NewBudget(5).Cap(); got != 5 {
		t.Errorf("NewBudget(5).Cap() = %d, want 5", got)
	}
	if a, b := SharedBudget(), SharedBudget(); a != b || a.Cap() < 1 {
		t.Errorf("SharedBudget not a stable process-wide pool: %p vs %p cap %d", a, b, a.Cap())
	}
}

func TestReportExecutionMeta(t *testing.T) {
	rep := &Report{Workers: 8, ElapsedSeconds: 1.5}
	rep.ClearExecutionMeta()
	if rep.Workers != 0 || rep.ElapsedSeconds != 0 {
		t.Errorf("ClearExecutionMeta left %d workers, %gs", rep.Workers, rep.ElapsedSeconds)
	}
	rep.SetExecutionMeta(2, 0.25)
	if rep.Workers != 2 || rep.ElapsedSeconds != 0.25 {
		t.Errorf("SetExecutionMeta stored %d workers, %gs", rep.Workers, rep.ElapsedSeconds)
	}
}
