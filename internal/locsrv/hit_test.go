package locsrv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// readEvents reads a job's whole NDJSON events stream.
func readEvents(t *testing.T, hs *httptest.Server, id string) []event {
	t.Helper()
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("unparseable event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// primeCache runs each spec to completion on a throwaway server over dir,
// so a later server on the same directory finds their results cached.
func primeCache(t *testing.T, dir string, bodies ...string) {
	t.Helper()
	_, hs := newTestServer(t, run.Options{CacheDir: dir})
	for _, body := range bodies {
		if v := poll(t, hs, submit(t, hs, body)[0].ID); v.Status != "done" {
			t.Fatalf("priming %s: job ended %q: %s", body, v.Status, v.Error)
		}
	}
}

// resolveOne resolves a single spec document.
func resolveOne(t *testing.T, body string) spec.Resolved {
	t.Helper()
	specs, err := spec.Decode(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rj, err := spec.Resolve(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	return rj
}

// failingJob is a resolved job whose every trial errors: a miss that fails
// in the executor, which no library scenario does on demand.
func failingJob(seed int64) spec.Resolved {
	sc := engine.Scenario{
		Name: "boom", Trials: 2,
		Run: func(*engine.T) error { return fmt.Errorf("kaboom") },
	}
	return spec.Resolved{
		Spec: spec.JobSpec{Kind: spec.KindScenario, ID: "boom", Seed: seed, Trials: 2},
		Campaign: engine.Campaign[*spec.Value]{
			Scenario: sc,
			Finalize: func(rep *engine.Report) (*spec.Value, error) { return &spec.Value{Report: rep}, nil },
		},
		Trials: 2, TotalTrials: 2, ShardSize: 8,
	}
}

// resultBytes renders a job's result without execution metadata.
func resultBytes(t *testing.T, v jobSummary) string {
	t.Helper()
	if v.Result == nil {
		t.Fatalf("job %s carries no result", v.ID)
	}
	c := *v.Result
	c.ClearExecutionMeta()
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// requireCachedTrace checks a served hit's span subtree: exactly one
// run.job span naming the job and marked cached, as an executed hit
// records it.
func requireCachedTrace(t *testing.T, v jobSummary) {
	t.Helper()
	if len(v.Trace) != 1 {
		t.Fatalf("cached job trace has %d spans, want one run.job: %+v", len(v.Trace), v.Trace)
	}
	r := v.Trace[0]
	if r.Name != "run.job" || r.Attrs["job"] != v.ID || r.Attrs["scenario"] != v.Spec.ID ||
		r.Attrs["kind"] != v.Spec.Kind || r.Attrs["cached"] != true {
		t.Errorf("cached job span %+v, want run.job with job, scenario, kind and cached=true", r)
	}
}

// TestSubmitTimeHitMatchesExecutorHit: a spec another server cached on the
// same directory is answered done and cached in the POST response itself,
// its result is byte-identical to the one the executor serves for the same
// hit, and its events stream is the snapshot line plus the terminal line.
func TestSubmitTimeHitMatchesExecutorHit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	body := `{"kind":"scenario","id":"multilat-town","seed":21,"trials":4}`
	primeCache(t, dir, body)

	_, hs := newTestServer(t, run.Options{CacheDir: dir})
	js := submit(t, hs, body)[0]
	if js.Status != "done" || !js.Cached || js.DoneTrials != 4 || js.Result != nil {
		t.Fatalf("POST summary %+v, want a result-less done/cached job at 4/4 trials", js)
	}
	atSubmit := poll(t, hs, js.ID)

	// The same hit through the executor: register and launch without the
	// submit-time lookup.
	execSrv, execHS := newTestServer(t, run.Options{CacheDir: dir})
	_, fresh, err := execSrv.registerJobs([]spec.Resolved{resolveOne(t, body)})
	if err != nil {
		t.Fatal(err)
	}
	execSrv.launch(fresh)
	viaExecutor := poll(t, execHS, js.ID)
	if viaExecutor.Status != "done" || !viaExecutor.Cached {
		t.Fatalf("executor path ended %q cached=%v", viaExecutor.Status, viaExecutor.Cached)
	}
	if got, want := resultBytes(t, atSubmit), resultBytes(t, viaExecutor); got != want {
		t.Errorf("submit-time hit diverged from the executor's hit\n got %s\nwant %s", got, want)
	}
	if atSubmit.CacheKey != viaExecutor.CacheKey || atSubmit.Trials != viaExecutor.Trials {
		t.Errorf("summaries disagree: submit %+v, executor %+v", atSubmit, viaExecutor)
	}
	requireCachedTrace(t, atSubmit)
	requireCachedTrace(t, viaExecutor)

	events := readEvents(t, hs, js.ID)
	if len(events) != 2 || events[0].Status != "" || events[0].Done != 4 || events[0].Total != 4 ||
		events[1].Status != "done" || !events[1].Cached {
		t.Errorf("events of a submit-time hit %+v, want the 4/4 snapshot then a cached done line", events)
	}
}

// TestSubmitTimeHitsInBatches covers batches that mix cached and uncached
// jobs: hits are done at submit while misses launch, a failing miss never
// drags a hit down with it, and a cached spec listed twice is one job.
func TestSubmitTimeHitsInBatches(t *testing.T) {
	const (
		hitA = `{"kind":"scenario","id":"multilat-town","seed":31,"trials":2}`
		hitB = `{"kind":"scenario","id":"multilat-town","seed":32,"trials":2}`
		hitC = `{"kind":"scenario","id":"multilat-town","seed":33,"trials":2}`
	)
	dir := filepath.Join(t.TempDir(), "cache")
	primeCache(t, dir, hitA, hitB, hitC)

	t.Run("hits done, misses running", func(t *testing.T) {
		_, hs := newTestServer(t, run.Options{CacheDir: dir})
		miss := `{"kind":"scenario","id":"multilat-town","seed":34,"trials":2}`
		jobs := submit(t, hs, "["+hitA+","+miss+"]")
		if jobs[0].Status != "done" || !jobs[0].Cached {
			t.Errorf("cached job in a mixed batch: %+v, want done/cached", jobs[0])
		}
		if jobs[1].Status != "running" {
			t.Errorf("uncached job in a mixed batch: %+v, want running", jobs[1])
		}
		if v := poll(t, hs, jobs[1].ID); v.Status != "done" || v.Cached {
			t.Errorf("miss ended %q cached=%v, want a computed done", v.Status, v.Cached)
		}
	})

	t.Run("failing miss leaves hits done", func(t *testing.T) {
		// Sequential execution makes the sibling after the failure a
		// deterministic skip.
		srv, hs := newTestServer(t, run.Options{CacheDir: dir, SuiteParallel: 1})
		sibling := resolveOne(t, `{"kind":"scenario","id":"multilat-town","seed":35,"trials":2}`)
		sums, _, err := srv.start([]spec.Resolved{resolveOne(t, hitB), failingJob(1), sibling})
		if err != nil {
			t.Fatal(err)
		}
		if sums[0].Status != "done" || !sums[0].Cached || sums[1].Status != "running" || sums[2].Status != "running" {
			t.Fatalf("batch summaries %+v, want the hit done and both misses running", sums)
		}
		if v := poll(t, hs, sums[1].ID); v.Status != "failed" || v.Skipped || !strings.Contains(v.Error, "kaboom") {
			t.Errorf("failing miss %+v, want failed with its own error", v)
		}
		if v := poll(t, hs, sums[2].ID); v.Status != "failed" || !v.Skipped {
			t.Errorf("miss after the failure %+v, want skipped", v)
		}
		if v := poll(t, hs, sums[0].ID); v.Status != "done" || !v.Cached || v.Skipped || v.Result == nil {
			t.Errorf("hit after a sibling failed %+v, want done and cached, never skipped", v)
		}
	})

	t.Run("cached spec listed twice", func(t *testing.T) {
		_, hs := newTestServer(t, run.Options{CacheDir: dir})
		before := obs.Default().Snapshot()
		jobs := submit(t, hs, "["+hitC+","+hitC+"]")
		after := obs.Default().Snapshot()
		if len(jobs) != 2 || jobs[0].ID != jobs[1].ID {
			t.Fatalf("duplicate batch returned %+v, want one job twice", jobs)
		}
		for i, js := range jobs {
			if js.Status != "done" || !js.Cached {
				t.Errorf("listing %d: %+v, want done/cached", i, js)
			}
		}
		if d := counterDelta(before, after, "cache_get_total"); d != 1 {
			t.Errorf("a spec listed twice read the cache %d times, want once", d)
		}
		if d := counterDelta(before, after, "run_jobs_cached_total"); d != 1 {
			t.Errorf("a spec listed twice counted %d cached jobs, want 1", d)
		}
	})
}

func counterDelta(before, after obs.Snapshot, name string) int64 {
	return after.Counters[name] - before.Counters[name]
}

func histCount(s obs.Snapshot, name string) int64 {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Count
		}
	}
	return 0
}

// TestSubmitTimeHitAccounting: a hit served at submit books exactly what an
// executed hit books — one cache Get and hit, one job and one cached job,
// one job-time observation — and a miss found at submit books nothing of
// its own: the job's one cache Get is the executor's.
func TestSubmitTimeHitAccounting(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	hit := `{"kind":"scenario","id":"multilat-town","seed":41,"trials":2}`
	primeCache(t, dir, hit)
	_, hs := newTestServer(t, run.Options{CacheDir: dir})

	before := obs.Default().Snapshot()
	js := submit(t, hs, hit)[0]
	after := obs.Default().Snapshot()
	if js.Status != "done" || !js.Cached {
		t.Fatalf("POST summary %+v, want done/cached", js)
	}
	for name, want := range map[string]int64{
		"cache_get_total": 1, "cache_hit_total": 1, "cache_miss_total": 0,
		"run_jobs_total": 1, "run_jobs_cached_total": 1, "run_jobs_failed_total": 0,
		"engine_trials_total": 0,
	} {
		if d := counterDelta(before, after, name); d != want {
			t.Errorf("submit-time hit: %s moved by %d, want %d", name, d, want)
		}
	}
	if d := histCount(after, "run_job_seconds") - histCount(before, "run_job_seconds"); d != 1 {
		t.Errorf("submit-time hit: %d run_job_seconds observations, want 1", d)
	}
	requireCachedTrace(t, poll(t, hs, js.ID))

	before = obs.Default().Snapshot()
	miss := submit(t, hs, `{"kind":"scenario","id":"multilat-town","seed":42,"trials":2}`)[0]
	v := poll(t, hs, miss.ID)
	after = obs.Default().Snapshot()
	if miss.Status != "running" || v.Status != "done" || v.Cached {
		t.Fatalf("miss: submitted %q, ended %q cached=%v", miss.Status, v.Status, v.Cached)
	}
	for name, want := range map[string]int64{
		"cache_get_total": 1, "cache_hit_total": 0, "cache_miss_total": 1,
		"run_jobs_total": 1, "run_jobs_cached_total": 0,
	} {
		if d := counterDelta(before, after, name); d != want {
			t.Errorf("submit-time miss: %s moved by %d, want %d", name, d, want)
		}
	}
	names := map[string]int{}
	for _, r := range v.Trace {
		names[r.Name]++
	}
	if names["run.job"] != 1 {
		t.Errorf("missed job trace spans %v, want exactly one run.job", names)
	}
}

// TestSubmitDoesNotWaitOnSharedKey: two job ids can share one cache key (a
// spec spelling out a parameter default and one omitting it), and the
// executor holds that key's lock across a whole computation. A submission
// of the second id while the first computes must answer "running" at once
// instead of waiting on the lock; its executor then serves the first's
// result as a hit, so the trials are still computed once.
func TestSubmitDoesNotWaitOnSharedKey(t *testing.T) {
	trials := 2000
	if testing.Short() {
		trials = 1000
	}
	srv, hs := newTestServer(t, run.Options{})
	long := fmt.Sprintf(`{"kind":"scenario","id":"mobility-waypoint","seed":3,"trials":%d}`, trials)
	twin := fmt.Sprintf(`{"kind":"scenario","id":"mobility-waypoint","seed":3,"trials":%d,"params":{"speed_mps":1}}`, trials)

	first := submit(t, hs, long)[0]
	// Wait until the first job is computing, which it does holding the key.
	for {
		srv.mu.Lock()
		j := srv.jobs[first.ID]
		progress, status := j.progress, j.status
		srv.mu.Unlock()
		if status != "running" {
			t.Fatalf("first job finished before the twin was submitted; raise its trial count")
		}
		if progress > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	second := submit(t, hs, twin)[0]
	srv.mu.Lock()
	firstStatus := srv.jobs[first.ID].status
	srv.mu.Unlock()
	if second.ID == first.ID {
		t.Fatal("the twin spec maps to the same job id; the test needs two ids")
	}
	if second.Status != "running" || firstStatus != "running" {
		t.Errorf("twin answered %q with the first job %q, want running while the first still computes",
			second.Status, firstStatus)
	}
	v1, v2 := poll(t, hs, first.ID), poll(t, hs, second.ID)
	if v1.Status != "done" || v2.Status != "done" || v1.CacheKey != v2.CacheKey || !v2.Cached {
		t.Errorf("jobs ended %q/%q keys %s/%s, twin cached=%v; want both done on one key, the twin a hit",
			v1.Status, v2.Status, v1.CacheKey, v2.CacheKey, v2.Cached)
	}
	if got := srv.Session().TrialsExecuted(); got != trials {
		t.Errorf("computed %d trials, want %d: the shared key must compute once", got, trials)
	}
}

// TestHealthzRunningMatchesRecount: /healthz's running_jobs is kept where
// job status changes, and after submit-time hits, misses, a failure, a
// skipped job and its retry it still equals a recount of the table, both
// with a job running and at rest.
func TestHealthzRunningMatchesRecount(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	hit := `{"kind":"scenario","id":"multilat-town","seed":51,"trials":2}`
	primeCache(t, dir, hit)
	srv, hs := newTestServer(t, run.Options{CacheDir: dir, SuiteParallel: 1})

	check := func(when string) int {
		t.Helper()
		srv.mu.Lock()
		recount := 0
		for _, j := range srv.jobs {
			if j.status == "running" {
				recount++
			}
		}
		srv.mu.Unlock()
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		if h.RunningJobs != recount {
			t.Errorf("%s: healthz running_jobs %d, table recount %d", when, h.RunningJobs, recount)
		}
		return recount
	}

	skippedBody := `{"kind":"scenario","id":"multilat-town","seed":52,"trials":2}`
	sums, _, err := srv.start([]spec.Resolved{resolveOne(t, hit), failingJob(2), resolveOne(t, skippedBody)})
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range sums {
		poll(t, hs, js.ID)
	}
	if v := poll(t, hs, sums[2].ID); !v.Skipped {
		t.Fatalf("third job %+v, want skipped", v)
	}
	// The retry replaces the skipped record with a fresh one.
	if v := poll(t, hs, submit(t, hs, skippedBody)[0].ID); v.Status != "done" {
		t.Fatalf("retry ended %q: %s", v.Status, v.Error)
	}
	submit(t, hs, hit) // attaches to the finished job
	check("after hits, a failure, a skip and its retry")

	long := submit(t, hs, `{"kind":"scenario","id":"mobility-waypoint","seed":53,"trials":400}`)[0]
	check("with a job running")
	poll(t, hs, long.ID)
	if n := check("at rest"); n != 0 {
		t.Errorf("%d jobs still running at rest", n)
	}
}
