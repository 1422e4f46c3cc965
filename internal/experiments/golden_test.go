package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"resilientloc/internal/engine"
)

// The golden corpus pins every figure reproduction byte-for-byte: the files
// under testdata/golden were generated from the pre-engine serial generators
// (go test ./internal/experiments -run TestGolden -update), so this test
// proves two things at once — the campaign ports preserve each figure's
// exact output, and that output is identical at every engine worker count
// (the table sweeps seeds 1 and 5 at 1 and 8 workers). Each figure runs the
// way a job does: its [0, trials) partial crosses the wire encoding, merges
// and finalizes.

var updateGolden = flag.Bool("update", false, "rewrite the golden figure outputs")

var goldenSeeds = []int64{1, 5}

// goldenWorkers are the engine worker counts every figure must agree across.
var goldenWorkers = []int{1, 8}

// slowFigs are skipped under -short; the full run covers them.
var slowFigs = map[string]bool{"fig18": true, "fig19": true, "fig22": true}

func goldenPath(id string, seed int64) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_seed%d.golden", id, seed))
}

func TestGoldenFigures(t *testing.T) {
	for _, seed := range goldenSeeds {
		for _, workers := range goldenWorkers {
			for _, e := range All() {
				e, seed, workers := e, seed, workers
				if *updateGolden && workers != 1 {
					continue // goldens are defined by the serial run
				}
				t.Run(fmt.Sprintf("%s/seed%d/workers%d", e.ID, seed, workers), func(t *testing.T) {
					if testing.Short() && slowFigs[e.ID] {
						t.Skip("slow figure; run without -short")
					}
					runner, err := engine.NewRunner(engine.Config{Seed: seed, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					c := defaultCampaign(t, e, seed)
					trials, _ := c.Geometry(0, 0)
					got := mergedResult(t, runner, c, []int{0, trials}).Render()
					path := goldenPath(e.ID, seed)
					if *updateGolden {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden file (regenerate with -update): %v", err)
					}
					if got != string(want) {
						t.Errorf("%s seed %d workers %d diverged from golden output\n--- got ---\n%s--- want ---\n%s",
							e.ID, seed, workers, got, want)
					}
				})
			}
		}
	}
}
