package engine

import (
	"fmt"
	"testing"
)

// scratchScenario exercises the shard-scoped arena machinery end to end:
// ShardInit precomputes a table shared by every trial on the shard, trials
// borrow and dirty arena buffers, and a stashed accumulator persists across
// Release. Results must not depend on how trials are sharded, and under
// -race this doubles as proof that shards share no scratch state.
func scratchScenario() Scenario {
	return Scenario{
		Name:        "test-scratch",
		Description: "shard arenas and ShardInit precomputation",
		Trials:      64,
		ShardInit: func() any {
			table := make([]float64, 32)
			for i := range table {
				table[i] = float64(i*i) / 7
			}
			return table
		},
		Run: func(t *T) error {
			table, ok := t.ShardData.([]float64)
			if !ok {
				return fmt.Errorf("trial %d: ShardData is %T, want []float64", t.Trial, t.ShardData)
			}
			buf := t.Scratch().Float64s(len(table))
			for i := range buf {
				buf[i] = table[i] + t.RNG.NormFloat64()
			}
			sum := 0.0
			for _, v := range buf {
				sum += v
			}
			t.Record("sum", sum)
			// Dirty an int buffer too so reuse across trials is exercised.
			idx := t.Scratch().Ints(8)
			for i := range idx {
				idx[i] = t.Trial + i
			}
			t.Record("tail", float64(idx[len(idx)-1]))
			t.RecordSeries("walk", buf[:8])
			return nil
		},
	}
}

// TestScratchScenarioWorkerIndependence: a scenario that leans on the arena
// and ShardInit must produce byte-identical reports at every worker count.
func TestScratchScenarioWorkerIndependence(t *testing.T) {
	s := perTrial(scratchScenario())
	base := mustRun(t, Config{Workers: 1, Seed: 11}, s)
	for _, workers := range []int{2, 3, 8} {
		rep := mustRun(t, Config{Workers: workers, Seed: 11}, s)
		if !sameReport(base, rep) {
			t.Errorf("workers=%d: report differs from workers=1", workers)
		}
	}
}

// TestScratchScenarioShardInitPerShard verifies ShardInit ran (ShardData
// visible in every trial) without any cross-shard aliasing: each shard gets
// its own table, so a trial mutating its ShardData cannot corrupt another
// shard even when run under -race.
func TestScratchScenarioShardInitPerShard(t *testing.T) {
	s := scratchScenario()
	inner := s.Run
	s.Run = func(tt *T) error {
		if err := inner(tt); err != nil {
			return err
		}
		// Scribble on the shard table; worker independence above already
		// pinned the expected output, so this only has to be race-free.
		tt.ShardData.([]float64)[0] = float64(tt.Trial)
		return nil
	}
	mustRun(t, Config{Workers: 4, Seed: 13}, s)
}
