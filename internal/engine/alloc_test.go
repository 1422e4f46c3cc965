package engine

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// shardAllocs runs s's trials [0, 8) as one shard through a one-worker
// Runner, warmed by a first run, and returns the mean heap bytes and
// allocations of a run, per trial, over runs runs.
func shardAllocs(t *testing.T, s Scenario, runs int) (bytes, allocs float64) {
	t.Helper()
	r, err := NewRunner(Config{Workers: 1, Trials: 8, ShardSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := r.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	// The runner keeps its arenas in a sync.Pool. On one P, with the
	// collector off, nothing moves the warmed arena to another P's pool or
	// empties the pool, so every measured run reuses it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // warm the shard arena
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := float64(runs * 8)
	return float64(after.TotalAlloc-before.TotalAlloc) / per, float64(after.Mallocs-before.Mallocs) / per
}

// TestShardAllocCeilings holds a warmed 8-trial shard through the Runner,
// per trial, under byte and allocation ceilings. Measured on linux/amd64
// with go1.24: multilat-grid 14×14 at 17.5 KB and 28.5 allocations a trial
// (ceilings 32 KB and 48, about 1.8× and 1.7× headroom); mobility-waypoint
// at 7.9 KB and 33.6 allocations (ceilings 16 KB and 48, about 2× and
// 1.4×). Measurement sets allocated afresh each trial instead of taken
// from the arena raise the two to 176 KB and 99 KB a trial.
func TestShardAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop arenas at random")
	}
	cases := []struct {
		s                Scenario
		maxBytes, maxNum float64
	}{
		{LargeGrid(14, 14), 32 << 10, 48},
		{MobilityWaypoint(1, 4), 16 << 10, 48},
	}
	for _, c := range cases {
		b, n := shardAllocs(t, c.s, 10)
		if b > c.maxBytes || n > c.maxNum {
			t.Errorf("%s: warmed shard allocates %.0f B and %.1f allocations a trial, want ≤ %.0f B and ≤ %.0f",
				c.s.Name, b, n, c.maxBytes, c.maxNum)
		}
	}
}
