package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/params"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/experiments"
	"resilientloc/internal/locsrv"
)

// twoWorkers stands up two real locd services and returns their -workers
// flag value.
func twoWorkers(t *testing.T) string {
	t.Helper()
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := locsrv.New(run.Options{CacheDir: filepath.Join(t.TempDir(), "cache")})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { srv.Close(); hs.Close() })
		urls = append(urls, hs.URL)
	}
	return strings.Join(urls, ",")
}

// TestDistributedScenarioMatchesLocal: a scenario coordinated over two
// workers emits the same aggregates as cmd/scenarios would locally (the
// JSON shapes match; execution metadata aside).
func TestDistributedScenarioMatchesLocal(t *testing.T) {
	workers := twoWorkers(t)
	var buf bytes.Buffer
	err := realMain([]string{"-workers", workers, "-kind", "scenario", "-id", "multilat-town",
		"-seed", "2", "-trials", "6", "-json"}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var reports []*engine.Report
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, buf.String())
	}
	if len(reports) != 1 || reports[0].Scenario != "multilat-town" || reports[0].Trials != 6 {
		t.Fatalf("unexpected reports: %+v", reports)
	}

	// Reference: the same job through the local runner.
	sess, err := run.NewSession(run.Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	val, _, err := run.ExecuteSpec(sess, spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 2, Trials: 6})
	if err != nil {
		t.Fatal(err)
	}
	got, want := *reports[0], *val.Report
	got.ClearExecutionMeta()
	want.ClearExecutionMeta()
	gj, _ := json.Marshal(&got)
	wj, _ := json.Marshal(&want)
	if string(gj) != string(wj) {
		t.Errorf("distributed aggregates diverged\n got %s\nwant %s", gj, wj)
	}
}

// TestDistributedFigureMatchesGolden: a multi-trial figure over the fleet
// encodes byte-identically to the golden corpus, from a spec file.
func TestDistributedFigureMatchesGolden(t *testing.T) {
	workers := twoWorkers(t)
	specFile := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(specFile, []byte(`{"kind":"figure","id":"maxrange","seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := realMain([]string{"-workers", workers, "-spec", specFile, "-json"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	var results []*experiments.Result
	if err := json.Unmarshal(buf.Bytes(), &results); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, buf.String())
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "golden", "maxrange_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if figureJSON(t, results[0]) != string(want) {
		t.Error("distributed maxrange diverged from golden output")
	}

	// Text mode renders the figure plus a distribution footer.
	buf.Reset()
	if err := realMain([]string{"-workers", workers, "-spec", specFile, "-progress=false"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "maxrange") || !strings.Contains(buf.String(), "(distributed:") {
		t.Errorf("text output missing figure or footer:\n%s", buf.String())
	}
}

// TestDistributedParamPointMatchesLocal: a parameterized factory point
// addressed with -param distributes across the fleet and merges to the same
// aggregates as the local runner — the operating point travels in the
// sub-jobs' content addresses.
func TestDistributedParamPointMatchesLocal(t *testing.T) {
	workers := twoWorkers(t)
	var buf bytes.Buffer
	err := realMain([]string{"-workers", workers, "-kind", "scenario", "-id", "mobility-waypoint",
		"-param", "speed_mps=2.5", "-seed", "2", "-trials", "4", "-json"}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var reports []*engine.Report
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, buf.String())
	}
	if len(reports) != 1 || reports[0].Scenario != "mobility-waypoint" || reports[0].Trials != 4 {
		t.Fatalf("unexpected reports: %+v", reports)
	}

	sess, err := run.NewSession(run.Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	val, _, err := run.ExecuteSpec(sess, spec.JobSpec{Kind: spec.KindScenario, ID: "mobility-waypoint",
		Seed: 2, Trials: 4, Params: params.Map{"speed_mps": params.Num(2.5)}})
	if err != nil {
		t.Fatal(err)
	}
	got, want := *reports[0], *val.Report
	got.ClearExecutionMeta()
	want.ClearExecutionMeta()
	gj, _ := json.Marshal(&got)
	wj, _ := json.Marshal(&want)
	if string(gj) != string(wj) {
		t.Errorf("distributed parameterized aggregates diverged\n got %s\nwant %s", gj, wj)
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},                         // no workers
		{"-workers", "http://x:1"}, // nothing to run
		{"-workers", "http://x:1", "-spec", "a.json", "-id", "b", "-kind", "scenario"},                  // both selections
		{"-workers", "http://x:1", "-kind", "bogus", "-id", "x"},                                        // bad kind
		{"-workers", "http://x:1", "-spec", "a.json", "-param", "x=1"},                                  // params vs spec file
		{"-workers", "http://x:1", "-kind", "scenario", "-id", "mobility-waypoint", "-param", "warp=9"}, // unknown param
	} {
		if err := realMain(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestReuseExtensionThroughLocc is the CLI acceptance path for prefix
// reuse: a 1024-trial scenario coordinated onto a worker, then the same
// spec at 4096 trials against the same worker cache, must reuse the full
// 1024 cached trials (reported in the summary footer) and emit aggregates
// identical to a cold local 4096-trial run.
func TestReuseExtensionThroughLocc(t *testing.T) {
	srv, err := locsrv.New(run.Options{CacheDir: filepath.Join(t.TempDir(), "cache")})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { srv.Close(); hs.Close() })

	gridArgs := func(trials string, extra ...string) []string {
		return append([]string{"-workers", hs.URL, "-kind", "scenario", "-id", "multilat-grid",
			"-param", "rows=3", "-param", "cols=4", "-seed", "1", "-trials", trials, "-progress=false"}, extra...)
	}
	if err := realMain(gridArgs("1024"), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if err := realMain(gridArgs("4096"), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "reused 1024 trials") {
		t.Errorf("summary does not report the 1024 reused trials:\n%s%s", out.String(), errOut.String())
	}

	out.Reset()
	if err := realMain(gridArgs("4096", "-json"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var reports []*engine.Report
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, out.String())
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports", len(reports))
	}

	sess, err := run.NewSession(run.Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	val, _, err := run.ExecuteSpec(sess, spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-grid",
		Seed: 1, Trials: 4096, Params: params.Map{"rows": params.Num(3), "cols": params.Num(4)}})
	if err != nil {
		t.Fatal(err)
	}
	got, want := *reports[0], *val.Report
	got.ClearExecutionMeta()
	want.ClearExecutionMeta()
	gj, _ := json.Marshal(&got)
	wj, _ := json.Marshal(&want)
	if string(gj) != string(wj) {
		t.Errorf("extended distributed aggregates diverged from cold local run\n got %s\nwant %s", gj, wj)
	}
}

// TestCITargetThroughLocc: -ci-target drives the distributed auto-trials
// ladder; a generous target converges on the scenario's default count.
func TestCITargetThroughLocc(t *testing.T) {
	workers := twoWorkers(t)
	var buf bytes.Buffer
	err := realMain([]string{"-workers", workers, "-kind", "scenario", "-id", "multilat-town",
		"-seed", "2", "-ci-target", "1e9", "-json", "-progress=false"}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var reports []*engine.Report
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, buf.String())
	}
	if len(reports) != 1 || reports[0].Trials == 0 {
		t.Fatalf("unexpected reports: %+v", reports)
	}

	// -ci-target is a spec-construction shorthand and cannot restate a spec
	// file's contents.
	specFile := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(specFile, []byte(`{"kind":"scenario","id":"multilat-town"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := realMain([]string{"-workers", workers, "-spec", specFile, "-ci-target", "0.5"},
		io.Discard, io.Discard); err == nil {
		t.Error("-ci-target with a spec file accepted")
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
