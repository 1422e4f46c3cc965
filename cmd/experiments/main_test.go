package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientloc/internal/experiments"
)

func TestRunSingleExperiment(t *testing.T) {
	// fig11 is the cheapest experiment; the full harness is exercised by
	// the experiments package tests and benchmarks.
	var buf bytes.Buffer
	if err := realMain([]string{"-only", "fig11", "-seed", "2", "-no-cache", "-progress=false"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig11", "error with consistency check", "elapsed"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := realMain([]string{"-only", "fig11,fig20", "-seed", "2", "-no-cache", "-progress=false", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var results []*experiments.Result
	if err := json.Unmarshal(buf.Bytes(), &results); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, buf.String())
	}
	if len(results) != 2 || results[0].ID != "fig11" || results[1].ID != "fig20" {
		t.Errorf("unexpected JSON results: %+v", results)
	}
	if _, ok := results[0].Get("error with consistency check"); !ok {
		t.Error("decoded result missing metric")
	}
}

func TestRunCached(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var first, second bytes.Buffer
	if err := realMain([]string{"-only", "fig11", "-seed", "3", "-cache", dir, "-progress=false"}, &first); err != nil {
		t.Fatal(err)
	}
	if err := realMain([]string{"-only", "fig11", "-seed", "3", "-cache", dir, "-progress=false"}, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "(cached)") {
		t.Errorf("second run not served from cache:\n%s", second.String())
	}
	trim := func(s string) string { return s[:strings.Index(s, "  (")] }
	if trim(first.String()) != trim(second.String()) {
		t.Errorf("cached output differs:\n%s\nvs:\n%s", first.String(), second.String())
	}
}

// TestRunSuiteParallelMatchesSequential checks the CLI's -suite-parallel
// path emits the figures in the same order with identical bodies; only the
// per-figure "(elapsed: ...)" status lines may differ between runs.
func TestRunSuiteParallelMatchesSequential(t *testing.T) {
	strip := func(s string) string {
		var kept []string
		for _, l := range strings.Split(s, "\n") {
			if !strings.HasPrefix(l, "  (") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	base := []string{"-only", "fig11,fig20,maxrange", "-seed", "1", "-no-cache", "-progress=false"}
	var sequential, overlapped bytes.Buffer
	if err := realMain(base, &sequential); err != nil {
		t.Fatal(err)
	}
	if err := realMain(append([]string{"-suite-parallel", "3"}, base...), &overlapped); err != nil {
		t.Fatal(err)
	}
	if strip(sequential.String()) != strip(overlapped.String()) {
		t.Errorf("-suite-parallel output differs from sequential:\n--- sequential ---\n%s--- overlapped ---\n%s",
			sequential.String(), overlapped.String())
	}
}

// TestSpecFileMatchesFlags is the -spec acceptance check: running a spec
// file must produce output byte-identical to the equivalent flag
// invocation, in both text and JSON modes.
func TestSpecFileMatchesFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	doc := `[{"kind":"figure","id":"fig11","seed":2},{"kind":"figure","id":"fig20","seed":2}]`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{nil, {"-json"}} {
		var flags, specs bytes.Buffer
		base := append([]string{"-no-cache", "-progress=false"}, mode...)
		if err := realMain(append([]string{"-only", "fig11,fig20", "-seed", "2"}, base...), &flags); err != nil {
			t.Fatal(err)
		}
		if err := realMain(append([]string{"-spec", path}, base...), &specs); err != nil {
			t.Fatal(err)
		}
		trim := func(s string) string { // per-run elapsed lines may differ
			var kept []string
			for _, l := range strings.Split(s, "\n") {
				if !strings.HasPrefix(l, "  (") {
					kept = append(kept, l)
				}
			}
			return strings.Join(kept, "\n")
		}
		if trim(flags.String()) != trim(specs.String()) {
			t.Errorf("mode %v: -spec output differs from flags\n--- flags ---\n%s--- spec ---\n%s",
				mode, flags.String(), specs.String())
		}
	}
}

func TestSpecFileErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte(`{"kind":"scenario","id":"multilat-town","seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := realMain([]string{"-spec", path}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "figure specs") {
		t.Errorf("scenario spec accepted by the figure CLI: %v", err)
	}
	if err := realMain([]string{"-spec", path, "-only", "fig11"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "not both") {
		t.Errorf("-spec with -only accepted: %v", err)
	}
	if err := realMain([]string{"-spec", filepath.Join(t.TempDir(), "missing.json")}, &bytes.Buffer{}); err == nil {
		t.Error("missing spec file accepted")
	}
	// An explicit -seed would silently lose against the file's embedded
	// seeds, so it must be rejected.
	fig := filepath.Join(t.TempDir(), "fig.json")
	if err := os.WriteFile(fig, []byte(`{"kind":"figure","id":"fig11","seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := realMain([]string{"-spec", fig, "-seed", "7"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "-seed") {
		t.Errorf("-seed with -spec accepted: %v", err)
	}
}

// TestListAndParams: -list prints every experiment ID plus the parameter
// schema of the parameterized ones, and -param selects an operating point
// (validated against the schema) for -only runs.
func TestListAndParams(t *testing.T) {
	var list bytes.Buffer
	if err := realMain([]string{"-list"}, &list); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if list.String() != string(want) {
		t.Errorf("-list output diverged from testdata/list.golden\n--- got ---\n%s--- want ---\n%s", list.String(), want)
	}

	var buf bytes.Buffer
	if err := realMain([]string{"-only", "maxrange", "-param", "rounds=5",
		"-seed", "2", "-no-cache", "-progress=false"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "maxrange") {
		t.Errorf("parameterized run output incomplete:\n%s", buf.String())
	}

	if err := realMain([]string{"-only", "maxrange", "-param", "rounds=0", "-no-cache"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range param accepted: %v", err)
	}
	if err := realMain([]string{"-only", "fig11", "-param", "rounds=5", "-no-cache"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "takes no parameters") {
		t.Errorf("param on a fixed figure accepted: %v", err)
	}
}

// TestSweepFile: -sweep expands a figure template across its grid; -param
// conflicts with the file like the other job-parameter flags.
func TestSweepFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	doc := `{"template":{"kind":"figure","id":"maxrange"},"grid":{"rounds":[4,5]},"seeds":[2]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := realMain([]string{"-sweep", path, "-no-cache", "-progress=false", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var results []*experiments.Result
	if err := json.Unmarshal(buf.Bytes(), &results); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, buf.String())
	}
	if len(results) != 2 || results[0].ID != "maxrange" || results[1].ID != "maxrange" {
		t.Errorf("sweep results %+v, want two maxrange points", results)
	}
	if err := realMain([]string{"-sweep", path, "-param", "rounds=9"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "-param") {
		t.Errorf("-param with -sweep accepted: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := realMain([]string{"-only", "fig99"}, &bytes.Buffer{}); err == nil {
		t.Error("want error for unknown experiment")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := realMain([]string{"-definitely-not-a-flag"}, &bytes.Buffer{}); err == nil {
		t.Error("want error for unknown flag")
	}
}
