package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"resilientloc/internal/engine"
)

// TestListOutput pins -list byte for byte (and a bare invocation, which
// prints the same listing) against testdata/list.golden.
func TestListOutput(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-list"}, nil} {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != string(want) {
			t.Errorf("%v output diverged from testdata/list.golden\n--- got ---\n%s--- want ---\n%s", args, buf.String(), want)
		}
	}
}

func TestRunScenarioTextAndJSON(t *testing.T) {
	var text bytes.Buffer
	err := run([]string{"-run", "multilat-town", "-trials", "3", "-seed", "2", "-parallel", "2", "-no-cache"}, &text)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "multilat-town") || !strings.Contains(text.String(), "localized_frac") {
		t.Errorf("text report incomplete:\n%s", text.String())
	}

	var jsonBuf bytes.Buffer
	err = run([]string{"-run", "multilat-town", "-trials", "3", "-seed", "2", "-json", "-no-cache"}, &jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	var reports []engine.Report
	if err := json.Unmarshal(jsonBuf.Bytes(), &reports); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, jsonBuf.String())
	}
	if len(reports) != 1 || reports[0].Scenario != "multilat-town" || reports[0].Trials != 3 {
		t.Errorf("unexpected JSON reports: %+v", reports)
	}
	if _, ok := reports[0].Metric("avg_error_m"); !ok {
		t.Error("JSON report missing avg_error_m")
	}
}

func TestRunSuite(t *testing.T) {
	var buf bytes.Buffer
	// The multilat suite is the cheapest that exercises several scenarios.
	err := run([]string{"-suite", "multilat", "-trials", "2", "-seed", "3", "-no-cache"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"multilat-town", "multilat-anchor-dropout-6", "multilat-grid-196"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("suite output missing %q", want)
		}
	}
}

func TestRunCachedScenario(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	args := []string{"-run", "multilat-town", "-trials", "2", "-seed", "4", "-cache", dir}
	var first, second bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), ", cached ==") {
		t.Errorf("second run not served from cache:\n%s", second.String())
	}
	// A streamed progress counter reaches the progress writer.
	var progress bytes.Buffer
	prev := progressWriter
	progressWriter = &progress
	defer func() { progressWriter = prev }()
	var buf bytes.Buffer
	if err := run([]string{"-run", "multilat-town", "-trials", "2", "-seed", "5", "-no-cache"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress.String(), "2/2 trials") {
		t.Errorf("progress stream missing trial counter: %q", progress.String())
	}
}

// TestRunSuiteParallelMatchesSequential runs a whole suite overlapped and
// sequentially: every deterministic byte must match; only the per-run
// "W workers, E.EEs" header fragment may differ.
func TestRunSuiteParallelMatchesSequential(t *testing.T) {
	normalize := func(s string) string {
		return regexp.MustCompile(`\d+ workers, \d+\.\d+s`).ReplaceAllString(s, "N workers")
	}
	base := []string{"-suite", "multilat", "-trials", "2", "-seed", "3", "-no-cache"}
	var sequential, overlapped bytes.Buffer
	if err := run(base, &sequential); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-suite-parallel", "0"}, base...), &overlapped); err != nil {
		t.Fatal(err)
	}
	if normalize(sequential.String()) != normalize(overlapped.String()) {
		t.Errorf("-suite-parallel output differs from sequential:\n--- sequential ---\n%s--- overlapped ---\n%s",
			sequential.String(), overlapped.String())
	}
}

// TestSpecFileMatchesFlags is the -spec acceptance check: a spec file
// carrying the same scenario, seed, and trial override produces output
// byte-identical to the flag invocation (the per-run "W workers, E.EEs"
// fragment aside).
func TestSpecFileMatchesFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	doc := `{"kind":"scenario","id":"multilat-town","seed":2,"trials":3}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	normalize := func(s string) string {
		return regexp.MustCompile(`\d+ workers, \d+\.\d+s`).ReplaceAllString(s, "N workers")
	}
	var flags, specs bytes.Buffer
	if err := run([]string{"-run", "multilat-town", "-trials", "3", "-seed", "2", "-no-cache"}, &flags); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", path, "-no-cache"}, &specs); err != nil {
		t.Fatal(err)
	}
	if normalize(flags.String()) != normalize(specs.String()) {
		t.Errorf("-spec output differs from flags\n--- flags ---\n%s--- spec ---\n%s",
			flags.String(), specs.String())
	}
}

func TestSpecFileErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte(`{"kind":"figure","id":"fig11","seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", path}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "scenario specs") {
		t.Errorf("figure spec accepted by the scenario CLI: %v", err)
	}
	if err := run([]string{"-spec", path, "-run", "multilat-town"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "not both") {
		t.Errorf("-spec with -run accepted: %v", err)
	}
	// Explicit job-parameter flags would silently lose against the file's
	// embedded parameters, so they must be rejected.
	scen := filepath.Join(t.TempDir(), "scen.json")
	if err := os.WriteFile(scen, []byte(`{"kind":"scenario","id":"multilat-town","seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", scen, "-trials", "9"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "-trials") {
		t.Errorf("-trials with -spec accepted: %v", err)
	}
}

// TestFactoryScenarioWithParams: -run addresses a parameterized factory and
// the repeatable -param flag selects its operating point; -list prints the
// factory schema the flags are validated against.
func TestFactoryScenarioWithParams(t *testing.T) {
	var list bytes.Buffer
	if err := run([]string{"-list"}, &list); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"parameterized factories", "mobility-waypoint", "speed_mps", "ranging-mixed-env", "boundary_frac"} {
		if !strings.Contains(list.String(), want) {
			t.Errorf("-list output missing %q:\n%s", want, list.String())
		}
	}

	var buf bytes.Buffer
	err := run([]string{"-run", "mobility-waypoint", "-param", "speed_mps=2.5",
		"-trials", "2", "-seed", "2", "-no-cache", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var reports []engine.Report
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, buf.String())
	}
	if len(reports) != 1 || reports[0].Scenario != "mobility-waypoint" || reports[0].Trials != 2 {
		t.Errorf("unexpected reports: %+v", reports)
	}

	// Out-of-schema points are rejected by name before any trial runs.
	if err := run([]string{"-run", "mobility-waypoint", "-param", "warp=9", "-no-cache"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), `unknown parameter "warp"`) {
		t.Errorf("bogus param accepted: %v", err)
	}
	if err := run([]string{"-run", "multilat-town", "-param", "speed_mps=1", "-no-cache"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "takes no parameters") {
		t.Errorf("param on a library scenario accepted: %v", err)
	}
}

// TestSweepFileExpandsToPointRuns: -sweep expands a template + grid into one
// job per point, and each point's output is byte-identical to running it
// directly via -param (the workers/elapsed header fragment aside).
func TestSweepFileExpandsToPointRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	doc := `{"template":{"kind":"scenario","id":"mobility-waypoint","seed":2,"trials":2},
	         "grid":{"speed_mps":[0,2.5]}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	normalize := func(s string) string {
		return regexp.MustCompile(`\d+ workers, \d+\.\d+s`).ReplaceAllString(s, "N workers")
	}
	var swept bytes.Buffer
	if err := run([]string{"-sweep", path, "-no-cache"}, &swept); err != nil {
		t.Fatal(err)
	}
	var points bytes.Buffer
	for _, speed := range []string{"0", "2.5"} {
		if err := run([]string{"-run", "mobility-waypoint", "-param", "speed_mps=" + speed,
			"-trials", "2", "-seed", "2", "-no-cache"}, &points); err != nil {
			t.Fatal(err)
		}
	}
	if normalize(swept.String()) != normalize(points.String()) {
		t.Errorf("-sweep output differs from per-point -param runs\n--- sweep ---\n%s--- points ---\n%s",
			swept.String(), points.String())
	}

	// Sweep files pin every job parameter, so explicit ones are rejected.
	if err := run([]string{"-sweep", path, "-param", "epoch_s=8"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "-param") {
		t.Errorf("-param with -sweep accepted: %v", err)
	}
	if err := run([]string{"-sweep", path, "-spec", path}, &bytes.Buffer{}); err == nil {
		t.Error("-sweep with -spec accepted")
	}
}

func TestBadInputs(t *testing.T) {
	cases := [][]string{
		{"-run", "nope"},
		{"-suite", "nope"},
		{"-run", "multilat-town", "-suite", "multilat"},
		{"-run", "multilat-town", "-parallel", "-1"},
		{"-definitely-not-a-flag"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}
