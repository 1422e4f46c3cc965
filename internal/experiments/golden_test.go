package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"resilientloc/internal/engine"
)

// The golden corpus pins every figure reproduction at full precision: each
// file under testdata/golden is the figure's Result as indented JSON, the
// element cmd/experiments -json prints for it (regenerate with go test
// ./internal/experiments -run TestGolden -update). This test proves that
// each figure's output is unchanged and identical at every engine worker
// count (the table sweeps seeds 1 and 5 at 1 and 8 workers). Each figure
// runs the way a job does: its [0, trials) partial crosses the wire
// encoding, merges and finalizes.

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
					got, err := json.MarshalIndent(mergedResult(t, runner, c, []int{0, trials}), "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, '\n')
					path := goldenPath(e.ID, seed)
					if *updateGolden {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden file (regenerate with -update): %v", err)
					}
					if string(got) != string(want) {
						t.Errorf("%s seed %d workers %d diverged from golden output\n--- got ---\n%s--- want ---\n%s",
							e.ID, seed, workers, got, want)
					}
				})
			}
		}
	}
}

// TestRenderText pins Render's text block: the header and claim lines,
// metrics at %10.3f with and without a unit, series points at %.3g and
// %.4g, and the note.
func TestRenderText(t *testing.T) {
	r := &Result{ID: "figX", Title: "A title", PaperClaim: "a claim", Notes: "a note"}
	r.Add("average error", 0.09514051887854019, "m")
	r.Add("final objective E", 74.83112, "")
	r.Series = []Series{{Name: "curve", Points: []SeriesPoint{{X: 1.23456, Y: 9.876543}, {X: 1500, Y: 0.5}}}}
	want := "== figX: A title ==\n" +
		"  paper: a claim\n" +
		"  average error                                   0.095 m\n" +
		"  final objective E                              74.831\n" +
		"  series curve: (1.23, 9.877) (1.5e+03, 0.5)\n" +
		"  note: a note\n"
	if got := r.Render(); got != want {
		t.Errorf("Render:\n%s\nwant:\n%s", got, want)
	}
}
