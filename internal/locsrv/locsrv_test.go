package locsrv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/params"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/experiments"
)

func newTestServer(t *testing.T, opts run.Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.CacheDir == "" && !opts.NoCache {
		opts.CacheDir = filepath.Join(t.TempDir(), "cache")
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// submit POSTs a spec document and returns the response job summaries.
func submit(t *testing.T, hs *httptest.Server, body string) []jobSummary {
	t.Helper()
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	var out struct {
		Jobs []jobSummary `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Jobs
}

// poll fetches the job until it leaves "running" or the deadline passes.
func poll(t *testing.T, hs *httptest.Server, id string) jobSummary {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobSummary
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != "running" {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after deadline: %+v", id, v)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFigureJobMatchesGoldenCorpus is the service acceptance check: a
// figure job submitted over the wire returns a result that encodes
// byte-identically to the golden corpus (which also pins cmd/experiments'
// output for the same job) at seeds 1 and 5.
func TestFigureJobMatchesGoldenCorpus(t *testing.T) {
	_, hs := newTestServer(t, run.Options{})
	goldenDir := filepath.Join("..", "..", "internal", "experiments", "testdata", "golden")
	for _, seed := range []int64{1, 5} {
		body := fmt.Sprintf(`{"kind":"figure","id":"fig11","seed":%d}`, seed)
		jobs := submit(t, hs, body)
		if len(jobs) != 1 {
			t.Fatalf("submitted 1 spec, got %d jobs", len(jobs))
		}
		v := poll(t, hs, jobs[0].ID)
		if v.Status != "done" || v.Result == nil || v.Result.Figure == nil {
			t.Fatalf("seed %d: job ended %q (error %q), result %+v", seed, v.Status, v.Error, v.Result)
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, fmt.Sprintf("fig11_seed%d.golden", seed)))
		if err != nil {
			t.Fatal(err)
		}
		if got := figureJSON(t, v.Result.Figure); got != string(want) {
			t.Errorf("fig11 seed %d over the wire diverged from golden output\n--- got ---\n%s--- want ---\n%s",
				seed, got, want)
		}
		if v.DoneTrials != v.Trials || v.Trials != 1 {
			t.Errorf("seed %d: trials %d/%d, want 1/1", seed, v.DoneTrials, v.Trials)
		}
	}
}

// TestDedupInFlightAndResubmission: identical specs — submitted
// concurrently, listed twice in one batch, or resubmitted after completion
// — are one job with one execution; trials are computed exactly once.
func TestDedupInFlightAndResubmission(t *testing.T) {
	srv, hs := newTestServer(t, run.Options{})
	body := `{"kind":"scenario","id":"multilat-town","seed":9,"trials":4}`

	var wg sync.WaitGroup
	ids := make([]string, 4)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submit(t, hs, body)[0].ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("identical specs got distinct job ids: %v", ids)
		}
	}
	v := poll(t, hs, ids[0])
	if v.Status != "done" || v.Cached {
		t.Fatalf("job ended %q cached=%v, want a fresh done run", v.Status, v.Cached)
	}
	if got := srv.Session().TrialsExecuted(); got != 4 {
		t.Errorf("concurrent identical submissions computed %d trials, want exactly 4", got)
	}

	// A batch naming the same job twice is still one job, answered twice.
	jobs := submit(t, hs, "["+body+","+body+"]")
	if len(jobs) != 2 || jobs[0].ID != ids[0] || jobs[1].ID != ids[0] {
		t.Fatalf("duplicate batch returned %+v, want the existing job twice", jobs)
	}
	if jobs[0].Status != "done" {
		t.Errorf("resubmission of a finished job reports %q, want done", jobs[0].Status)
	}
	if got := srv.Session().TrialsExecuted(); got != 4 {
		t.Errorf("resubmission recomputed: %d trials total, want still 4", got)
	}

	// A distinct spec with the same cache key shape but a new seed computes.
	other := submit(t, hs, `{"kind":"scenario","id":"multilat-town","seed":10,"trials":4}`)[0]
	if other.ID == ids[0] {
		t.Fatal("different seed mapped to the same job id")
	}
	if v := poll(t, hs, other.ID); v.Status != "done" {
		t.Fatalf("second job ended %q: %s", v.Status, v.Error)
	}
	if got := srv.Session().TrialsExecuted(); got != 8 {
		t.Errorf("distinct job did not compute: %d trials total, want 8", got)
	}
}

// TestEventsStreamNDJSON: the events endpoint emits newline-delimited JSON
// counter events ending in a terminal status line — including for
// subscribers who arrive after the job finished.
func TestEventsStreamNDJSON(t *testing.T) {
	_, hs := newTestServer(t, run.Options{})
	jobs := submit(t, hs, `{"kind":"scenario","id":"multilat-town","seed":3,"trials":4,"shard_size":1}`)
	id := jobs[0].ID

	readEvents := func() []event {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("events content type %q", ct)
		}
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

	// Live subscription: the stream terminates when the job does.
	live := readEvents()
	if len(live) == 0 {
		t.Fatal("live events stream was empty")
	}
	last := live[len(live)-1]
	if last.Status != "done" || last.Done != 4 || last.Total != 4 {
		t.Errorf("terminal event %+v, want done 4/4", last)
	}
	prev := -1
	for _, e := range live {
		if e.ID != id || e.Done < prev {
			t.Errorf("event stream inconsistent: %+v", live)
			break
		}
		prev = e.Done
	}

	// Late subscription to the finished job: snapshot plus terminal line.
	late := readEvents()
	if len(late) != 2 || late[1].Status != "done" {
		t.Errorf("late subscription got %+v, want snapshot + terminal", late)
	}
}

// TestCacheEndpointServesEntries: a finished job's cache_key addresses its
// raw self-describing cache entry; bad and absent keys are 400/404.
func TestCacheEndpointServesEntries(t *testing.T) {
	_, hs := newTestServer(t, run.Options{})
	id := submit(t, hs, `{"kind":"scenario","id":"multilat-town","seed":2,"trials":2}`)[0].ID
	v := poll(t, hs, id)
	if v.Status != "done" || v.CacheKey == "" {
		t.Fatalf("job %+v, want done with a cache key", v)
	}
	resp, err := http.Get(hs.URL + "/v1/cache/" + v.CacheKey)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cache/{key}: status %d", resp.StatusCode)
	}
	var entry struct {
		Key struct {
			Scenario string `json:"scenario"`
			Seed     int64  `json:"seed"`
		} `json:"key"`
		Value json.RawMessage `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		t.Fatal(err)
	}
	if entry.Key.Scenario != "multilat-town" || entry.Key.Seed != 2 || len(entry.Value) == 0 {
		t.Errorf("cache entry not self-describing: %+v", entry)
	}

	if r, _ := http.Get(hs.URL + "/v1/cache/not-a-hash"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid hash: status %d, want 400", r.StatusCode)
	}
	if r, _ := http.Get(hs.URL + "/v1/cache/" + strings.Repeat("0", 64)); r.StatusCode != http.StatusNotFound {
		t.Errorf("absent hash: status %d, want 404", r.StatusCode)
	}
}

func TestSubmitAndLookupErrors(t *testing.T) {
	_, hs := newTestServer(t, run.Options{NoCache: true})
	for body, want := range map[string]string{
		`{not json`: "decode",
		`{"kind":"figure","id":"fig99","seed":1}`:                                    "unknown figure",
		`{"kind":"figure","id":"fig11","trials":4}`:                                  "pin their trial count",
		`{"kind":"figure","id":"fig11","seeed":1}`:                                   "unknown field",
		`{"kind":"scenario","id":"multilat-town","seed":1,"keep_trial_values":true}`: `unknown field "keep_trial_values"`,
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, want) {
			t.Errorf("POST %q: status %d error %q, want 400 mentioning %q", body, resp.StatusCode, e.Error, want)
		}
	}
	if r, _ := http.Get(hs.URL + "/v1/jobs/nope"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r.StatusCode)
	}
	if r, _ := http.Get(hs.URL + "/v1/jobs/nope/events"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events: status %d, want 404", r.StatusCode)
	}
	if r, _ := http.Get(hs.URL + "/healthz"); r.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", r.StatusCode)
	}
}

// TestFinishedJobEviction: the job table is bounded — finished jobs beyond
// the cap are evicted oldest-first (they poll as 404 and resubmit as fresh,
// cache-served jobs), while recent ones survive.
func TestFinishedJobEviction(t *testing.T) {
	prev := maxFinishedJobs
	maxFinishedJobs = 2
	defer func() { maxFinishedJobs = prev }()
	_, hs := newTestServer(t, run.Options{})
	var ids []string
	for seed := 1; seed <= 3; seed++ {
		id := submit(t, hs, fmt.Sprintf(`{"kind":"scenario","id":"multilat-town","seed":%d,"trials":2}`, seed))[0].ID
		if v := poll(t, hs, id); v.Status != "done" {
			t.Fatalf("seed %d ended %q", seed, v.Status)
		}
		ids = append(ids, id)
	}
	if r, _ := http.Get(hs.URL + "/v1/jobs/" + ids[0]); r.StatusCode != http.StatusNotFound {
		t.Errorf("oldest finished job not evicted: status %d", r.StatusCode)
	}
	for _, id := range ids[1:] {
		if r, _ := http.Get(hs.URL + "/v1/jobs/" + id); r.StatusCode != http.StatusOK {
			t.Errorf("recent job %s evicted: status %d", id, r.StatusCode)
		}
	}
	// The evicted job resubmits as a fresh record and is answered from the
	// result cache without recomputation.
	again := submit(t, hs, `{"kind":"scenario","id":"multilat-town","seed":1,"trials":2}`)[0]
	if again.ID != ids[0] {
		t.Fatalf("resubmission changed the job id")
	}
	if v := poll(t, hs, again.ID); v.Status != "done" || !v.Cached {
		t.Errorf("resubmitted evicted job: status %q cached %v, want a cache-served done", v.Status, v.Cached)
	}
}

// TestPartialTrialRangeOverTheWire: a spec restricted to a trial sub-range
// executes partially — the response carries serialized shard aggregates
// (Value.Partial), never a finalized report — and the sub-ranges of one
// job merge back to exactly the full job's result. This is the worker-side
// half of the distributed coordinator.
func TestPartialTrialRangeOverTheWire(t *testing.T) {
	_, hs := newTestServer(t, run.Options{NoCache: true})

	full := poll(t, hs, submit(t, hs, `{"kind":"scenario","id":"multilat-town","seed":1,"trials":6}`)[0].ID)
	if full.Status != "done" || full.Result == nil || full.Result.Report == nil {
		t.Fatalf("full job: %+v", full)
	}

	var parts []*engine.Partial
	for _, body := range []string{
		`{"kind":"scenario","id":"multilat-town","seed":1,"trials":6,"trial_range":{"lo":0,"hi":4}}`,
		`{"kind":"scenario","id":"multilat-town","seed":1,"trials":6,"trial_range":{"lo":4,"hi":6}}`,
	} {
		js := submit(t, hs, body)
		if len(js) != 1 {
			t.Fatalf("submitted 1 partial spec, got %d jobs", len(js))
		}
		v := poll(t, hs, js[0].ID)
		if v.Status != "done" || v.Result == nil || v.Result.Partial == nil || v.Result.Report != nil {
			t.Fatalf("partial job %s: %+v", body, v)
		}
		parts = append(parts, v.Result.Partial)
	}
	if parts[0].Hi != 4 || parts[1].Lo != 4 {
		t.Fatalf("partials cover %+v", parts)
	}
	rep, err := engine.MergePartials(parts)
	if err != nil {
		t.Fatal(err)
	}
	rep.SetExecutionMeta(full.Result.Report.Workers, full.Result.Report.ElapsedSeconds)
	got, _ := json.Marshal(rep)
	want, _ := json.Marshal(full.Result.Report)
	if string(got) != string(want) {
		t.Errorf("merged wire partials diverged from the full job\n got %s\nwant %s", got, want)
	}

	// An out-of-bounds range is still rejected at submission.
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"scenario","id":"multilat-town","seed":1,"trials":6,"trial_range":{"lo":4,"hi":9}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized trial range accepted over the wire: status %d", resp.StatusCode)
	}
}

// TestEventsTerminalFailedLine: when a job errors, every events subscriber
// receives a terminal status:"failed" line carrying the error (and the
// retryable skipped marker when applicable) before the stream closes —
// a consumer must be able to distinguish job failure from a dropped
// connection, which ends with no status line at all. The failure is
// injected through the same finish path the suite executor drives.
func TestEventsTerminalFailedLine(t *testing.T) {
	srv, hs := newTestServer(t, run.Options{NoCache: true})

	// Register a running job directly (no library scenario fails on
	// demand), then subscribe and fail it.
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 77, Trials: 4}
	rj, err := spec.Resolve(sp)
	if err != nil {
		t.Fatal(err)
	}
	id := sp.Hash()
	j := &job{
		id:       id,
		resolved: rj,
		status:   "running",
		trials:   rj.Trials,
		done:     make(chan struct{}),
		subs:     make(map[chan [2]int]struct{}),
	}
	srv.mu.Lock()
	srv.jobs[id] = j
	srv.mu.Unlock()

	type streamResult struct {
		events []event
		err    error
	}
	resc := make(chan streamResult, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			resc <- streamResult{nil, err}
			return
		}
		defer resp.Body.Close()
		var events []event
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var e event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				resc <- streamResult{nil, fmt.Errorf("bad line %q: %v", sc.Text(), err)}
				return
			}
			events = append(events, e)
		}
		resc <- streamResult{events, sc.Err()}
	}()

	// Let the subscriber attach (the snapshot line is emitted on attach).
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n := len(j.subs)
		srv.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscriber never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.finish(run.Outcome{Spec: sp, Err: fmt.Errorf("trial 2: boom")}, nil)

	res := <-resc
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.events) == 0 {
		t.Fatal("no events received")
	}
	last := res.events[len(res.events)-1]
	if last.Status != "failed" || !strings.Contains(last.Error, "boom") || last.Skipped {
		t.Errorf("terminal event %+v, want status failed with the job's error", last)
	}

	// A late subscriber to the failed job gets the terminal line too, and
	// the job summary agrees.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var late []event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		late = append(late, e)
	}
	if len(late) != 2 || late[1].Status != "failed" || !strings.Contains(late[1].Error, "boom") {
		t.Errorf("late subscription got %+v, want snapshot + terminal failed", late)
	}

	// Skipped failures mark the terminal line as retryable.
	sp2 := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 78, Trials: 4}
	rj2, err := spec.Resolve(sp2)
	if err != nil {
		t.Fatal(err)
	}
	id2 := sp2.Hash()
	srv.mu.Lock()
	srv.jobs[id2] = &job{id: id2, resolved: rj2, status: "running", trials: rj2.Trials,
		done: make(chan struct{}), subs: make(map[chan [2]int]struct{})}
	srv.mu.Unlock()
	srv.finish(run.Outcome{Spec: sp2, Err: fmt.Errorf("%w", run.ErrSkipped)}, nil)
	resp2, err := http.Get(hs.URL + "/v1/jobs/" + id2 + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var skippedEvents []event
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var e event
		if err := json.Unmarshal(sc2.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		skippedEvents = append(skippedEvents, e)
	}
	final := skippedEvents[len(skippedEvents)-1]
	if final.Status != "failed" || !final.Skipped {
		t.Errorf("skipped job terminal event %+v, want failed with skipped=true", final)
	}
}

// TestBackpressure429: a submission whose fresh jobs would push the running
// set past the budget-derived admission bound (runningPerSlot jobs per
// shard-budget slot) is rejected whole — 429, a Retry-After header, and no
// partial registration — on both the jobs and sweeps endpoints.
// Deduplicating resubmissions register nothing, so they pass even at the
// bound.
func TestBackpressure429(t *testing.T) {
	// Pin the bound to exactly one job: one running slot per budget slot on
	// a one-slot budget.
	prevPer, prevBudget := runningPerSlot, admissionBudget
	runningPerSlot = 1
	tiny := engine.NewBudget(1)
	admissionBudget = func() *engine.Budget { return tiny }
	defer func() { runningPerSlot, admissionBudget = prevPer, prevBudget }()
	_, hs := newTestServer(t, run.Options{NoCache: true})

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	requireRejected := func(resp *http.Response) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		ra := resp.Header.Get("Retry-After")
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Errorf("Retry-After %q, want a positive integer", ra)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "overloaded") {
			t.Errorf("429 body error %q (%v), want it to mention overload", e.Error, err)
		}
	}

	// Two fresh specs against a one-job bound: rejected atomically.
	batch := `[{"kind":"scenario","id":"multilat-town","seed":50,"trials":2},
	           {"kind":"scenario","id":"multilat-town","seed":51,"trials":2}]`
	requireRejected(post("/v1/jobs", batch))
	for _, seed := range []int{50, 51} {
		sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: int64(seed), Trials: 2}
		if r, _ := http.Get(hs.URL + "/v1/jobs/" + sp.Hash()); r.StatusCode != http.StatusNotFound {
			t.Errorf("seed %d registered despite the batch rejection: status %d", seed, r.StatusCode)
		}
	}

	// A two-point sweep hits the same admission check before streaming.
	sweep := `{"template":{"kind":"scenario","id":"mobility-waypoint","seed":52,"trials":2},
	           "grid":{"speed_mps":[0,2.5]}}`
	requireRejected(post("/v1/sweeps", sweep))

	// A single fresh spec fits the bound exactly, and resubmitting it —
	// running or finished — registers nothing, so it passes too.
	one := `{"kind":"scenario","id":"multilat-town","seed":50,"trials":2}`
	id := submit(t, hs, one)[0].ID
	if again := submit(t, hs, one); again[0].ID != id {
		t.Errorf("resubmission at the bound changed the job id")
	}
	if v := poll(t, hs, id); v.Status != "done" {
		t.Fatalf("admitted job ended %q: %s", v.Status, v.Error)
	}
}

// readSweepStream POSTs a sweep document and parses the merged NDJSON
// stream into its header, event lines, and trailing summary.
func readSweepStream(t *testing.T, hs *httptest.Server, body string) (sweepHeader, []event, sweepSummary) {
	t.Helper()
	resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/sweeps: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("sweep stream content type %q", ct)
	}
	var lines []json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, json.RawMessage(strings.Clone(sc.Text())))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("sweep stream has %d lines, want header + summary at least", len(lines))
	}
	var hdr sweepHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatalf("header line %s: %v", lines[0], err)
	}
	var sum sweepSummary
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
		t.Fatalf("summary line %s: %v", lines[len(lines)-1], err)
	}
	var events []event
	for _, ln := range lines[1 : len(lines)-1] {
		var e event
		if err := json.Unmarshal(ln, &e); err != nil {
			t.Fatalf("event line %s: %v", ln, err)
		}
		events = append(events, e)
	}
	return hdr, events, sum
}

// TestSweepEndpointMergedStream: a sweep expands server-side into
// content-addressed jobs and streams one merged feed — header, per-job
// terminal lines carrying results, final summary. The same points submitted
// individually to /v1/jobs return byte-identical results, and re-running
// the sweep answers every point from the cache.
func TestSweepEndpointMergedStream(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	srv, hs := newTestServer(t, run.Options{CacheDir: cacheDir})
	sweep := `{"template":{"kind":"scenario","id":"mobility-waypoint","trials":2,"params":{"epoch_s":4}},
	           "grid":{"speed_mps":[0,2.5]},
	           "seeds":[1,5]}`

	hdr, events, sum := readSweepStream(t, hs, sweep)
	if hdr.Points != 4 || len(hdr.Jobs) != 4 || hdr.TotalTrials != 8 {
		t.Fatalf("sweep header %+v, want 4 points / 4 jobs / 8 trials", hdr)
	}
	if sum.Status != "done" || sum.Points != 4 || sum.Failed != 0 {
		t.Fatalf("sweep summary %+v, want done 4/0", sum)
	}
	terminal := make(map[string]event)
	for _, e := range events {
		if e.Status != "" {
			terminal[e.ID] = e
		}
	}
	if len(terminal) != 4 {
		t.Fatalf("got %d terminal lines, want 4: %+v", len(terminal), events)
	}
	for _, id := range hdr.Jobs {
		e, ok := terminal[id]
		if !ok || e.Status != "done" || e.Result == nil || e.Result.Report == nil {
			t.Fatalf("job %s terminal line %+v, want done with a report", id, e)
		}
	}

	// The same points submitted individually are the same jobs with
	// byte-identical reports (cache-served now: the sweep already ran them).
	for i, speed := range []string{"0", "2.5"} {
		for j, seed := range []string{"1", "5"} {
			body := fmt.Sprintf(`{"kind":"scenario","id":"mobility-waypoint","seed":%s,"trials":2,"params":{"epoch_s":4,"speed_mps":%s}}`,
				seed, speed)
			v := poll(t, hs, submit(t, hs, body)[0].ID)
			// Seeds expand outermost, then the lone axis: jobs[seedIdx*2+speedIdx].
			wantID := hdr.Jobs[j*2+i]
			if v.ID != wantID {
				t.Errorf("point speed=%s seed=%s is job %s, sweep expanded it as %s", speed, seed, v.ID, wantID)
			}
			if v.Status != "done" || v.Result == nil || v.Result.Report == nil {
				t.Fatalf("individual job %+v", v)
			}
			got, _ := json.Marshal(v.Result.Report)
			want, _ := json.Marshal(terminal[wantID].Result.Report)
			if string(got) != string(want) {
				t.Errorf("point speed=%s seed=%s diverged between sweep and individual submission\n got %s\nwant %s",
					speed, seed, got, want)
			}
			if resolved := v.Params; resolved.Float("speed_mps") == 0 && speed != "0" {
				t.Errorf("job summary params %s do not surface the operating point", resolved.Canonical())
			}
		}
	}

	// Re-running the sweep on the same server attaches every point to its
	// finished job: no trial recomputes.
	trialsBefore := srv.Session().TrialsExecuted()
	_, _, sum2 := readSweepStream(t, hs, sweep)
	if sum2.Status != "done" || sum2.Points != 4 {
		t.Fatalf("second sweep run summary %+v", sum2)
	}
	if got := srv.Session().TrialsExecuted(); got != trialsBefore {
		t.Errorf("second sweep run recomputed: %d trials executed, want still %d", got, trialsBefore)
	}

	// A fresh server over the same cache directory re-executes the sweep and
	// answers every point from the populated result cache.
	_, hs2 := newTestServer(t, run.Options{CacheDir: cacheDir})
	_, warm, sum3 := readSweepStream(t, hs2, sweep)
	if sum3.Status != "done" {
		t.Fatalf("warm sweep run summary %+v", sum3)
	}
	for _, e := range warm {
		if e.Status == "done" && !e.Cached {
			t.Errorf("warm sweep run missed the result cache on job %s", e.ID)
		}
	}
}

// TestSweepEndpointErrors: malformed documents, invalid expansions, and
// templates carrying unknown fields are rejected before anything registers.
func TestSweepEndpointErrors(t *testing.T) {
	_, hs := newTestServer(t, run.Options{NoCache: true})
	for body, want := range map[string]string{
		`{not json`: "decode",
		`{"template":{"kind":"scenario","id":"mobility-waypoint","seed":1},"gird":{"speed_mps":[1]}}`:       "unknown field",
		`{"template":{"kind":"scenario","id":"mobility-waypoint","seed":1},"grid":{"speed_mps":[]}}`:        "has no values",
		`{"template":{"kind":"scenario","id":"mobility-waypoint","seed":1},"grid":{"speed_mps":[99]}}`:      "out of range",
		`{"template":{"kind":"scenario","id":"multilat-town","seed":1},"grid":{"drop":[1]}}`:                "takes no parameters",
		`{"template":{"kind":"scenario","id":"multilat-town","seed":1,"keep_trial_values":true},"grid":{}}`: `unknown field "keep_trial_values"`,
	} {
		resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, want) {
			t.Errorf("POST /v1/sweeps %q: status %d error %q, want 400 mentioning %q", body, resp.StatusCode, e.Error, want)
		}
	}
}

// TestThreeEntryPointByteIdentity is the parameterization acceptance check:
// an operating point inexpressible before spec params — mobility-waypoint
// at speed_mps 2.5 — produces byte-identical reports through the in-process
// runner, POST /v1/jobs, and POST /v1/sweeps, across different worker
// counts. Execution metadata (workers, wall time) is cleared before
// comparison; everything else must match to the byte.
func TestThreeEntryPointByteIdentity(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "mobility-waypoint", Seed: 1, Trials: 4,
		Params: params.Map{"speed_mps": params.Num(2.5)}}

	render := func(rep *engine.Report) string {
		t.Helper()
		rep.ClearExecutionMeta()
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// Entry point 1: the in-process runner, serial.
	sess, err := run.NewSession(run.Options{NoCache: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	local, _, err := run.ExecuteSpec(sess, sp)
	if err != nil {
		t.Fatal(err)
	}
	if local.Report == nil {
		t.Fatalf("local run returned %+v, want a report", local)
	}
	want := render(local.Report)

	// Entry point 2: the jobs endpoint, 8 workers.
	_, hs1 := newTestServer(t, run.Options{NoCache: true, Workers: 8})
	body := `{"kind":"scenario","id":"mobility-waypoint","seed":1,"trials":4,"params":{"speed_mps":2.5}}`
	v := poll(t, hs1, submit(t, hs1, body)[0].ID)
	if v.Status != "done" || v.Result == nil || v.Result.Report == nil {
		t.Fatalf("wire job %+v", v)
	}
	if got := render(v.Result.Report); got != want {
		t.Errorf("POST /v1/jobs diverged from the in-process runner\n got %s\nwant %s", got, want)
	}

	// Entry point 3: the sweeps endpoint on a fresh server, 2 workers, with
	// the point spelled as a single-value grid axis.
	_, hs2 := newTestServer(t, run.Options{NoCache: true, Workers: 2})
	sweep := `{"template":{"kind":"scenario","id":"mobility-waypoint","seed":1,"trials":4},
	           "grid":{"speed_mps":[2.5]}}`
	hdr, events, sum := readSweepStream(t, hs2, sweep)
	if hdr.Points != 1 || sum.Status != "done" {
		t.Fatalf("sweep header %+v summary %+v", hdr, sum)
	}
	last := events[len(events)-1]
	if last.Status != "done" || last.Result == nil || last.Result.Report == nil {
		t.Fatalf("sweep terminal line %+v", last)
	}
	if last.ID != v.ID {
		t.Errorf("sweep expanded the point as job %s, /v1/jobs addressed it as %s", last.ID, v.ID)
	}
	if got := render(last.Result.Report); got != want {
		t.Errorf("POST /v1/sweeps diverged from the in-process runner\n got %s\nwant %s", got, want)
	}
}

// TestMetricsHealthzAndJobTrace covers the telemetry surface: a finished
// job's summary carries its span subtree; after a warm run (a second
// server on the same cache directory re-executes the spec and hits the
// populated cache) /metrics exposes non-zero job, shard, and cache-hit
// counters; and /healthz reports queue depth, in-flight jobs, and budget
// saturation instead of a bare "ok".
func TestMetricsHealthzAndJobTrace(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	_, hs1 := newTestServer(t, run.Options{CacheDir: cacheDir})
	body := `{"kind":"scenario","id":"multilat-town","seed":3,"trials":4}`

	jobs := submit(t, hs1, body)
	v := poll(t, hs1, jobs[0].ID)
	if v.Status != "done" {
		t.Fatalf("job ended %q (error %q)", v.Status, v.Error)
	}
	if len(v.Trace) == 0 {
		t.Error("done job summary carries no span subtree")
	}
	names := make(map[string]int)
	for _, r := range v.Trace {
		names[r.Name]++
	}
	if names["run.job"] != 1 || names["engine.shard"] == 0 {
		t.Errorf("job trace spans %v, want one run.job with engine.shard children", names)
	}

	// Warm run: a fresh server over the same cache directory executes the
	// same spec and must serve it from the populated result cache.
	_, hs2 := newTestServer(t, run.Options{CacheDir: cacheDir})
	v2 := poll(t, hs2, submit(t, hs2, body)[0].ID)
	if v2.Status != "done" {
		t.Fatalf("warm job ended %q (error %q)", v2.Status, v2.Error)
	}

	resp, err := http.Get(hs2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type %q, want text/plain exposition", ct)
	}
	metrics := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			var f float64
			if _, err := fmt.Sscanf(val, "%g", &f); err == nil {
				metrics[name] = f
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"run_jobs_total", "run_jobs_cached_total",
		"engine_trials_total", "engine_shards_total",
		"cache_get_total", "cache_hit_total", "cache_put_total",
		"run_job_seconds_count",
	} {
		if metrics[name] <= 0 {
			t.Errorf("/metrics %s = %g, want > 0 after a warm run", name, metrics[name])
		}
	}

	hresp, err := http.Get(hs2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("healthz status %q", h.Status)
	}
	if h.BudgetCap < 1 {
		t.Errorf("healthz budget_cap %d, want >= 1", h.BudgetCap)
	}
	if h.QueueDepth != 0 || h.InflightJobs != 0 || h.RunningJobs != 0 {
		t.Errorf("healthz reports load at rest: %+v", h)
	}
	if h.BudgetSaturation < 0 || h.BudgetSaturation > 1 {
		t.Errorf("healthz budget_saturation %g outside [0,1]", h.BudgetSaturation)
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
