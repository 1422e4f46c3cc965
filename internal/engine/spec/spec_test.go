package spec_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/experiments"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		sp      spec.JobSpec
		wantErr string // "" means valid
	}{
		{"minimal figure", spec.JobSpec{Kind: spec.KindFigure, ID: "fig06", Seed: 1}, ""},
		{"scenario with overrides", spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 4, ShardSize: 2}, ""},
		{"missing kind", spec.JobSpec{ID: "fig06"}, "missing kind"},
		{"unknown kind", spec.JobSpec{Kind: "suite", ID: "x"}, "unknown kind"},
		{"missing id", spec.JobSpec{Kind: spec.KindFigure}, "missing id"},
		{"negative trials", spec.JobSpec{Kind: spec.KindScenario, ID: "x", Trials: -1}, "negative trial count"},
		{"negative shard", spec.JobSpec{Kind: spec.KindScenario, ID: "x", ShardSize: -2}, "negative shard size"},
		{"figure trials pinned", spec.JobSpec{Kind: spec.KindFigure, ID: "fig06", Trials: 4}, "pin their trial count"},
		{"figure shard pinned", spec.JobSpec{Kind: spec.KindFigure, ID: "fig06", ShardSize: 2}, "pin their shard partition"},
		{"inverted range", spec.JobSpec{Kind: spec.KindScenario, ID: "x", TrialRange: &spec.Range{Lo: 4, Hi: 4}}, "invalid trial range"},
		{"negative range", spec.JobSpec{Kind: spec.KindScenario, ID: "x", TrialRange: &spec.Range{Lo: -1, Hi: 4}}, "invalid trial range"},
	}
	for _, tc := range cases {
		err := tc.sp.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want it to mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestCanonicalHashIdentity: every way of writing the same job addresses
// the same content hash, and any parameter change addresses a different one.
func TestCanonicalHashIdentity(t *testing.T) {
	base := spec.JobSpec{Kind: spec.KindFigure, ID: "fig11", Seed: 1}

	// Decoding a sprawling-but-equal document yields the same hash.
	doc := `{"seed": 1, "trials": 0, "id": "fig11", "kind": "figure"}`
	decoded, err := spec.Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if decoded[0].Hash() != base.Hash() {
		t.Errorf("equivalent document hashes differently:\n%s\nvs\n%s", decoded[0].Canonical(), base.Canonical())
	}

	// Round trip: Canonical() decodes back to an equal spec.
	again, err := spec.Decode(bytes.NewReader(base.Canonical()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again[0], base) {
		t.Errorf("canonical round trip changed the spec: %+v vs %+v", again[0], base)
	}

	// Every knob is identity-bearing.
	variants := []spec.JobSpec{
		{Kind: spec.KindFigure, ID: "fig12", Seed: 1},
		{Kind: spec.KindFigure, ID: "fig11", Seed: 2},
		{Kind: spec.KindScenario, ID: "fig11", Seed: 1},
		{Kind: spec.KindScenario, ID: "fig11", Seed: 1, Trials: 4},
	}
	seen := map[string]bool{base.Hash(): true}
	for _, v := range variants {
		if seen[v.Hash()] {
			t.Errorf("variant %+v collides with an earlier hash", v)
		}
		seen[v.Hash()] = true
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"":                  "empty input",
		"[]":                "no jobs",
		`{"kind":"figure"}`: "missing id",
		`{"kind":"figure","id":"fig11","trails":3}`:                 "unknown field",
		`{"kind":"scenario","id":"x","keep_trial_values":true}`:     `unknown field "keep_trial_values"`,
		`{"kind":"figure","id":"fig11"} {"x":1}`:                    "trailing data",
		`[{"kind":"figure","id":"fig11"},{"kind":"nope","id":"x"}]`: "unknown kind",
	}
	for in, want := range cases {
		if _, err := spec.Decode(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Decode(%q) error %v, want it to mention %q", in, err, want)
		}
	}
	// A single object and a one-element array are both accepted.
	for _, in := range []string{`{"kind":"figure","id":"fig11"}`, ` [ {"kind":"figure","id":"fig11"} ] `} {
		specs, err := spec.Decode(strings.NewReader(in))
		if err != nil || len(specs) != 1 || specs[0].ID != "fig11" {
			t.Errorf("Decode(%q) = %+v, %v", in, specs, err)
		}
	}
}

func TestResolve(t *testing.T) {
	// Figures resolve onto the experiment registry with their pinned
	// parameters surfaced.
	r, err := spec.Resolve(spec.JobSpec{Kind: spec.KindFigure, ID: "maxrange", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Trials != 36 || r.ShardSize != 1 || r.Shards() != 36 {
		t.Errorf("maxrange resolved to %d trials, %d shard size, %d shards; want 36/1/36",
			r.Trials, r.ShardSize, r.Shards())
	}
	// Scenarios resolve onto the library with spec overrides applied.
	r, err = spec.Resolve(spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 4, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Trials != 4 || r.ShardSize != 2 || r.Shards() != 2 {
		t.Errorf("multilat-town resolved to %d/%d/%d, want 4/2/2", r.Trials, r.ShardSize, r.Shards())
	}

	for _, tc := range []struct {
		sp   spec.JobSpec
		want string
	}{
		{spec.JobSpec{Kind: spec.KindFigure, ID: "fig99", Seed: 1}, "unknown figure"},
		{spec.JobSpec{Kind: spec.KindScenario, ID: "nope", Seed: 1}, "unknown scenario"},
		{spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 8,
			TrialRange: &spec.Range{Lo: 4, Hi: 12}}, "exceeds the job's 8 trials"},
	} {
		if _, err := spec.Resolve(tc.sp); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Resolve(%+v) error %v, want it to mention %q", tc.sp, err, tc.want)
		}
	}

	// A full-coverage trial range is the sharding no-op and resolves as a
	// full job.
	r, err = spec.Resolve(spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 8,
		TrialRange: &spec.Range{Lo: 0, Hi: 8}})
	if err != nil {
		t.Errorf("full trial range rejected: %v", err)
	}
	if r.PartialRange() != nil || r.Trials != 8 || r.TotalTrials != 8 {
		t.Errorf("full-range job resolved as partial: %+v", r)
	}

	// A proper sub-range resolves as a partial job: the range is its work,
	// the campaign's full span is retained alongside.
	r, err = spec.Resolve(spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 8,
		TrialRange: &spec.Range{Lo: 2, Hi: 5}})
	if err != nil {
		t.Fatalf("partial trial range rejected: %v", err)
	}
	if rg := r.PartialRange(); rg == nil || rg.Lo != 2 || rg.Hi != 5 || r.Trials != 3 || r.TotalTrials != 8 {
		t.Errorf("partial job resolved to %+v (range %+v), want trials 3 of 8 over [2, 5)", r, r.PartialRange())
	}

	// Partial ranges work for multi-trial figure jobs too.
	r, err = spec.Resolve(spec.JobSpec{Kind: spec.KindFigure, ID: "maxrange", Seed: 1,
		TrialRange: &spec.Range{Lo: 30, Hi: 36}})
	if err != nil {
		t.Fatalf("figure partial range rejected: %v", err)
	}
	if r.Trials != 6 || r.TotalTrials != 36 || r.ShardSize != 1 {
		t.Errorf("maxrange partial resolved to %d/%d/%d, want 6 of 36 at shard 1", r.Trials, r.TotalTrials, r.ShardSize)
	}
}

// executeValue runs a resolved job on a bare engine runner, the way the
// unified runner would (same config derivation), without the run package
// (which spec must not depend on).
func executeValue(t *testing.T, r spec.Resolved) *spec.Value {
	t.Helper()
	runner, err := engine.NewRunner(engine.Config{
		Seed: r.Spec.Seed, Trials: r.Spec.Trials, ShardSize: r.Spec.ShardSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := engine.RunCampaign(runner, r.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRoundTripMatchesGoldenCorpus is the spec-path acceptance check: a
// figure job that goes through the full wire cycle — encode, decode,
// resolve, execute — encodes byte-identically to the committed golden
// corpus at seeds 1 and 5.
func TestRoundTripMatchesGoldenCorpus(t *testing.T) {
	goldenDir := filepath.Join("..", "..", "experiments", "testdata", "golden")
	for _, id := range []string{"fig11", "fig20", "maxrange"} {
		for _, seed := range []int64{1, 5} {
			t.Run(fmt.Sprintf("%s/seed%d", id, seed), func(t *testing.T) {
				sp := spec.JobSpec{Kind: spec.KindFigure, ID: id, Seed: seed}
				decoded, err := spec.Decode(bytes.NewReader(sp.Canonical()))
				if err != nil {
					t.Fatal(err)
				}
				r, err := spec.Resolve(decoded[0])
				if err != nil {
					t.Fatal(err)
				}
				v := executeValue(t, r)
				if v.Figure == nil || v.Report != nil {
					t.Fatalf("figure job produced %+v, want only the Figure field", v)
				}
				want, err := os.ReadFile(filepath.Join(goldenDir, fmt.Sprintf("%s_seed%d.golden", id, seed)))
				if err != nil {
					t.Fatal(err)
				}
				if got := figureJSON(t, v.Figure); got != string(want) {
					t.Errorf("%s seed %d through the spec round trip diverged from golden output\n--- got ---\n%s--- want ---\n%s",
						id, seed, got, want)
				}
			})
		}
	}
}

// TestScenarioValueShape: scenario jobs fill only the Report field, and the
// spec's trial override reaches the engine.
func TestScenarioValueShape(t *testing.T) {
	r, err := spec.Resolve(spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := executeValue(t, r)
	if v.Report == nil || v.Figure != nil {
		t.Fatalf("scenario job produced %+v, want only the Report field", v)
	}
	if v.Report.Trials != 3 || v.Report.Seed != 1 {
		t.Errorf("report ran %d trials at seed %d, want 3 at 1", v.Report.Trials, v.Report.Seed)
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte(`[{"kind":"scenario","id":"multilat-town","seed":3,"trials":2}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err := spec.LoadFile(path)
	if err != nil || len(specs) != 1 || specs[0].Seed != 3 {
		t.Fatalf("LoadFile = %+v, %v", specs, err)
	}
	if _, err := spec.LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file did not error")
	}
}

// figureJSON is res as the figure golden corpus stores it: indented JSON
// and a trailing newline.
func figureJSON(t *testing.T, res *experiments.Result) string {
	t.Helper()
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}
