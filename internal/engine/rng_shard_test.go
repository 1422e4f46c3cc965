package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// rngDraws records a trial's first draws from rng: Float64, NormFloat64,
// Int63, a Perm, a Shuffle and three bytes of Read.
func rngDraws(rng *rand.Rand) []float64 {
	out := []float64{rng.Float64(), rng.NormFloat64(), float64(rng.Int63())}
	for _, v := range rng.Perm(6) {
		out = append(out, float64(v))
	}
	sh := []float64{0, 1, 2, 3, 4}
	rng.Shuffle(len(sh), func(a, b int) { sh[a], sh[b] = sh[b], sh[a] })
	out = append(out, sh...)
	buf := make([]byte, 3)
	rng.Read(buf)
	for _, b := range buf {
		out = append(out, float64(b))
	}
	return out
}

// drawScenario records rngDraws of t.RNG in every trial, then leaves the
// generator at a trial-dependent position, Read's byte buffer included, so
// that any state carried into the next trial would change its draws.
func drawScenario(s Scenario) Scenario {
	s.Run = func(t *T) error {
		t.RecordSeries("draws", rngDraws(t.RNG))
		for k := 0; k < t.Trial%3; k++ {
			t.RNG.NormFloat64()
		}
		t.RNG.Read(make([]byte, 1+t.Trial%7))
		return nil
	}
	return s
}

// TestShardRNGMatchesFreshPerTrialGenerator: the shard's one generator,
// reseeded before each trial, gives every trial the draws of a fresh
// rand.New(rand.NewSource(DeriveSeed(seed, trial))), at shard sizes 1 and 8.
func TestShardRNGMatchesFreshPerTrialGenerator(t *testing.T) {
	s := drawScenario(Scenario{Name: "test-rng-derived", Trials: 19})
	for _, shard := range []int{1, 8} {
		name := fmt.Sprintf("shard=%d", shard)
		rep := mustRun(t, Config{Workers: 2, Seed: 7, ShardSize: shard}, perTrial(s))
		for trial := 0; trial < s.Trials; trial++ {
			draws, ok := seriesNamed(rep, trialName("draws", trial))
			if !ok || draws.Trials != 1 {
				t.Fatalf("%s: trial %d recorded draws %+v, want one trial's", name, trial, draws)
			}
			want := rngDraws(rand.New(rand.NewSource(DeriveSeed(7, trial))))
			if fmt.Sprint(draws.Mean) != fmt.Sprint(want) {
				t.Errorf("%s: trial %d drew %v, fresh generator %v", name, trial, draws.Mean, want)
			}
		}
	}
}
