package coord_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/experiments"
	"resilientloc/internal/locsrv"
	"resilientloc/internal/obs"
)

// newWorker stands up a real locd service (internal/locsrv) and returns its
// base URL.
func newWorker(t *testing.T, opts run.Options) string {
	t.Helper()
	if opts.CacheDir == "" && !opts.NoCache {
		opts.CacheDir = filepath.Join(t.TempDir(), "cache")
	}
	srv, err := locsrv.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { srv.Close(); hs.Close() })
	return hs.URL
}

// localValue executes the spec in-process — the reference the coordinated
// result must reproduce byte-for-byte (modulo execution metadata).
func localValue(t *testing.T, sp spec.JobSpec) *spec.Value {
	t.Helper()
	sess, err := run.NewSession(run.Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	val, _, err := run.ExecuteSpec(sess, sp)
	if err != nil {
		t.Fatal(err)
	}
	return val
}

// normalized strips execution metadata and renders the value as JSON.
func normalized(t *testing.T, v *spec.Value) string {
	t.Helper()
	c := *v
	c.ClearExecutionMeta()
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCoordinatedMatchesGoldenCorpus is the acceptance check: a multi-trial
// figure job coordinated across real locd workers encodes byte-identically
// to the golden corpus at seeds 1 and 5, for fleets of one to three workers
// (each carving the trial space differently); a library scenario
// reproduces the local run the same way.
func TestCoordinatedMatchesGoldenCorpus(t *testing.T) {
	fleet := []string{newWorker(t, run.Options{}), newWorker(t, run.Options{}), newWorker(t, run.Options{})}
	goldenDir := filepath.Join("..", "..", "experiments", "testdata", "golden")

	for _, seed := range []int64{1, 5} {
		sp := spec.JobSpec{Kind: spec.KindFigure, ID: "maxrange", Seed: seed}
		want, err := os.ReadFile(filepath.Join(goldenDir, fmt.Sprintf("maxrange_seed%d.golden", seed)))
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= len(fleet); n++ {
			val, st, err := coord.Execute(context.Background(), sp,
				coord.Options{Workers: fleet[:n], Warnings: io.Discard})
			if err != nil {
				t.Fatalf("maxrange seed %d over %d workers: %v", seed, n, err)
			}
			if val.Figure == nil {
				t.Fatalf("maxrange seed %d: no figure in %+v", seed, val)
			}
			if got := figureJSON(t, val.Figure); got != string(want) {
				t.Errorf("maxrange seed %d over %d workers diverged from golden output\n--- got ---\n%s--- want ---\n%s",
					seed, n, got, want)
			}
			if st.Ranges < n || st.Trials != 36 {
				t.Errorf("stats %+v, want at least %d ranges over 36 trials", st, n)
			}
		}
	}

	// A scenario job: coordinated result equals the local run.
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 8, ShardSize: 2}
	want := normalized(t, localValue(t, sp))
	for n := 1; n <= len(fleet); n++ {
		val, _, err := coord.Execute(context.Background(), sp,
			coord.Options{Workers: fleet[:n], Warnings: io.Discard})
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		if got := normalized(t, val); got != want {
			t.Errorf("%d workers: coordinated scenario diverged\n got %s\nwant %s", n, got, want)
		}
	}

	// A single-trial figure cannot split; the coordinator submits it whole.
	single := spec.JobSpec{Kind: spec.KindFigure, ID: "fig11", Seed: 1}
	val, st, err := coord.Execute(context.Background(), single,
		coord.Options{Workers: fleet, Warnings: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	wantFig, err := os.ReadFile(filepath.Join(goldenDir, "fig11_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if val.Figure == nil || figureJSON(t, val.Figure) != string(wantFig) {
		t.Error("single-trial figure over the coordinator diverged from golden output")
	}
	if st.Ranges != 1 {
		t.Errorf("single-trial job split into %d ranges", st.Ranges)
	}
}

// TestCoordinatorProgressAggregates: the aggregate progress counter reaches
// trials and never decreases, and on a non-terminal writer the per-worker
// rows follow the completion line once, with no ANSI control sequences.
func TestCoordinatorProgressAggregates(t *testing.T) {
	workers := []string{newWorker(t, run.Options{NoCache: true})}
	var buf strings.Builder
	val, _, err := coord.Execute(context.Background(),
		spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 2, Trials: 8, ShardSize: 1},
		coord.Options{Workers: workers, Warnings: io.Discard, Progress: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if val.Report == nil && val.Figure == nil && val.Partial != nil {
		t.Fatalf("coordinator leaked a partial: %+v", val)
	}
	out := buf.String()
	if strings.ContainsAny(out, "\r\x1b") {
		t.Errorf("non-TTY progress contains carriage returns or ANSI escapes: %q", out)
	}
	prev := -1
	var lines []string
	for _, l := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(l, "  ") {
			lines = append(lines, l) // worker rows
			continue
		}
		var done, total int
		if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(l, "multilat-town")), "%d/%d trials", &done, &total); err != nil {
			t.Fatalf("unparseable milestone line %q: %v", l, err)
		}
		if done < prev || total != 8 || len(lines) > 0 {
			t.Errorf("milestone %q out of order in %q", l, out)
		}
		prev = done
	}
	if prev != 8 {
		t.Errorf("progress ended %d, want 8: %q", prev, out)
	}
	if len(lines) != 2 || !strings.Contains(lines[0], "worker") || !strings.HasPrefix(strings.TrimSpace(lines[1]), workers[0]) {
		t.Errorf("want a header and one worker row after completion, got %q", lines)
	}
}

// erroringWorker always 500s job submissions — the "worker that 500s
// mid-engagement" fault.
func erroringWorker(t *testing.T) string {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"induced failure"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// hangingWorker accepts a submission, reports the job running, and then
// never delivers another byte on the event stream.
func hangingWorker(t *testing.T) string {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"jobs":[{"id":"hang","status":"running","trials":1}]}`)
		case strings.HasSuffix(r.URL.Path, "/events"):
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			<-r.Context().Done() // hold the stream open forever
		default:
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"id":"hang","status":"running","trials":1}`)
		}
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// slowEventsProxy fronts a real worker but delays every event-stream
// response long enough to trip the stall detector, so the hedged duplicate
// attempt races the slow original to completion.
func slowEventsProxy(t *testing.T, target string, delay time.Duration) string {
	t.Helper()
	client := &http.Client{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			time.Sleep(delay)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := client.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestCoordinatorRetriesFaultyWorkers: ranges assigned to a worker that
// 500s, a worker that is simply down, or a worker that hangs mid-range are
// reassigned to the survivors, and the merged result is still exact.
func TestCoordinatorRetriesFaultyWorkers(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 3, Trials: 6, ShardSize: 2}
	want := normalized(t, localValue(t, sp))
	healthy := newWorker(t, run.Options{})

	// A dead worker: nothing listens on the port (the server is closed).
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	for name, faulty := range map[string]string{
		"erroring": erroringWorker(t),
		"dead":     deadURL,
		"hanging":  hangingWorker(t),
	} {
		val, st, err := coord.Execute(context.Background(), sp, coord.Options{
			Workers:      []string{faulty, healthy},
			StallTimeout: 200 * time.Millisecond,
			Warnings:     io.Discard,
		})
		if err != nil {
			t.Fatalf("%s worker: %v", name, err)
		}
		if got := normalized(t, val); got != want {
			t.Errorf("%s worker: merged result diverged", name)
		}
		if st.Retries == 0 {
			t.Errorf("%s worker: no retries recorded (stats %+v)", name, st)
		}
		if st.Workers != 1 {
			t.Errorf("%s worker: %d workers completed ranges, want only the healthy one", name, st.Workers)
		}
	}
}

// TestCoordinatorAllWorkersDown: with no survivors the execution fails with
// the range's error instead of hanging.
func TestCoordinatorAllWorkersDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	_, _, err := coord.Execute(context.Background(),
		spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 4},
		coord.Options{Workers: []string{deadURL},
			StallTimeout: 100 * time.Millisecond, Warnings: io.Discard})
	if err == nil || !strings.Contains(err.Error(), "attempts failed") {
		t.Errorf("err %v, want an all-attempts-failed error", err)
	}
}

// TestCoordinatorDedupesDuplicateCompletions: a slow worker trips the stall
// detector, the range is hedged onto a fast worker, and both eventually
// complete the same content-addressed sub-job. Exactly one copy enters the
// merge (first wins) — a double-counted range would fail the merge's
// tiling validation or corrupt the aggregate, so byte-identity to the
// local run proves the dedupe.
func TestCoordinatorDedupesDuplicateCompletions(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 4, Trials: 6, ShardSize: 3}
	want := normalized(t, localValue(t, sp))
	// Both fronts share one backing worker — and thus one result cache and
	// job table — so the hedged duplicate resolves to the same
	// content-addressed job on the backend.
	backend := newWorker(t, run.Options{})
	slow := slowEventsProxy(t, backend, 400*time.Millisecond)

	val, st, err := coord.Execute(context.Background(), sp, coord.Options{
		Workers:      []string{slow, backend},
		StallTimeout: 100 * time.Millisecond,
		Warnings:     io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalized(t, val); got != want {
		t.Errorf("deduped result diverged\n got %s\nwant %s", got, want)
	}
	if st.Retries == 0 {
		t.Errorf("no hedge recorded: %+v", st)
	}
}

// TestCoordinatorPermanentFailureDoesNotRetry: a worker reporting a
// terminal job failure (not a transport error, not a skipped sibling) ends
// the range immediately — the sub-job is deterministic, so every other
// worker would compute the same failure.
func TestCoordinatorPermanentFailureDoesNotRetry(t *testing.T) {
	var submits int32
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			atomic.AddInt32(&submits, 1)
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"jobs":[{"id":"x","status":"failed","error":"trial 3: boom"}]}`)
			return
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	t.Cleanup(failing.Close)

	_, st, err := coord.Execute(context.Background(),
		spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 4},
		coord.Options{Workers: []string{failing.URL, failing.URL},
			StallTimeout: time.Second, Warnings: io.Discard})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err %v, want the job's own failure", err)
	}
	if got := atomic.LoadInt32(&submits); got != 1 {
		t.Errorf("deterministic failure was submitted %d times, want exactly 1", got)
	}
	if st.Retries != 0 {
		t.Errorf("deterministic failure recorded %d retries, want 0", st.Retries)
	}
}

// TestDuplicateWorkerURLsAreOneWorker: a worker listed twice (here once
// with a trailing slash) is one worker — assignments are keyed by URL, so
// two entries would overwrite each other's and leave trials uncovered.
func TestDuplicateWorkerURLsAreOneWorker(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 16}
	want := normalized(t, localValue(t, sp))
	w := newWorker(t, run.Options{NoCache: true})
	val, st, err := coord.Execute(context.Background(), sp,
		coord.Options{Workers: []string{w, w + "/"}, Warnings: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalized(t, val); got != want {
		t.Errorf("duplicated worker list diverged\n got %s\nwant %s", got, want)
	}
	if st.Workers != 1 {
		t.Errorf("stats %+v, want one distinct worker", st)
	}
}

// TestExecuteValidation: option errors surface before any network traffic.
func TestExecuteValidation(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1}
	if _, _, err := coord.Execute(context.Background(), sp, coord.Options{}); err == nil {
		t.Error("no workers accepted")
	}
	ranged := sp
	ranged.TrialRange = &spec.Range{Lo: 0, Hi: 2}
	if _, _, err := coord.Execute(context.Background(), ranged,
		coord.Options{Workers: []string{"http://127.0.0.1:1"}}); err == nil ||
		!strings.Contains(err.Error(), "owns the split") {
		t.Errorf("pre-ranged spec: err %v, want rejection", err)
	}
	if _, _, err := coord.Execute(context.Background(),
		spec.JobSpec{Kind: spec.KindScenario, ID: "no-such", Seed: 1},
		coord.Options{Workers: []string{"http://127.0.0.1:1"}}); err == nil {
		t.Error("unknown job accepted")
	}
}

// TestCoordinatorTraceAndScoreboard: under tracing, one coordinated run
// exports spans from all three layers — coordinator ranges and attempts,
// each winning worker's run.job grafted beneath its range, and the engine
// shard spans beneath that — and the scoreboard snapshots attribute every
// range and trial to a worker.
func TestCoordinatorTraceAndScoreboard(t *testing.T) {
	workers := []string{newWorker(t, run.Options{NoCache: true}), newWorker(t, run.Options{NoCache: true})}
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 8, ShardSize: 2}

	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	val, st, err := coord.Execute(ctx, sp, coord.Options{Workers: workers, Warnings: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if val.Report == nil {
		t.Fatalf("no report in %+v", val)
	}

	recs := tr.Export()
	byID := make(map[int64]obs.SpanRecord, len(recs))
	counts := make(map[string]int)
	for _, r := range recs {
		byID[r.ID] = r
		counts[r.Name]++
	}
	for _, name := range []string{"coord.job", "coord.range", "coord.attempt", "run.job", "engine.run", "engine.shard"} {
		if counts[name] == 0 {
			t.Errorf("trace lacks any %q span (have %v)", name, counts)
		}
	}
	if counts["coord.range"] != st.Ranges {
		t.Errorf("%d coord.range spans, want %d", counts["coord.range"], st.Ranges)
	}
	if counts["run.job"] != st.Ranges {
		t.Errorf("%d grafted run.job spans, want one per range (%d)", counts["run.job"], st.Ranges)
	}
	// Parentage across the graft points: worker jobs hang off coordinator
	// ranges, engine runs off worker jobs.
	for _, r := range recs {
		switch r.Name {
		case "run.job":
			if byID[r.Parent].Name != "coord.range" {
				t.Errorf("run.job parent is %q, want coord.range", byID[r.Parent].Name)
			}
		case "engine.run":
			if byID[r.Parent].Name != "run.job" {
				t.Errorf("engine.run parent is %q, want run.job", byID[r.Parent].Name)
			}
		case "engine.shard":
			if byID[r.Parent].Name != "engine.run" {
				t.Errorf("engine.shard parent is %q, want engine.run", byID[r.Parent].Name)
			}
		}
	}

	// Scoreboard: the final snapshot accounts for every range and trial.
	if len(st.Scores) != len(workers) {
		t.Fatalf("scoreboard has %d rows, want %d", len(st.Scores), len(workers))
	}
	var ranges, trials int
	for _, ws := range st.Scores {
		ranges += ws.Ranges
		trials += ws.Trials
		if ws.Ranges > 0 && ws.TrialsPerSec <= 0 {
			t.Errorf("worker %s won %d ranges but reports %g trials/s", ws.Worker, ws.Ranges, ws.TrialsPerSec)
		}
	}
	if ranges != st.Ranges || trials != st.Trials {
		t.Errorf("scoreboard totals %d ranges / %d trials, want %d / %d", ranges, trials, st.Ranges, st.Trials)
	}
	if st.Hedges != 0 || st.DedupLosses != 0 {
		t.Errorf("healthy fleet recorded hedges=%d dedupLosses=%d, want 0/0", st.Hedges, st.DedupLosses)
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
