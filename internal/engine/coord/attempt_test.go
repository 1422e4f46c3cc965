package coord_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
)

// faultWorker fronts backend (a real worker's base URL, or "" for none)
// with fault, which either answers a request itself and returns true, or
// returns false to pass it through to the backend (404 without one).
func faultWorker(t *testing.T, backend string, fault func(w http.ResponseWriter, r *http.Request) bool) string {
	t.Helper()
	var pass http.Handler = http.NotFoundHandler()
	if backend != "" {
		u, err := url.Parse(backend)
		if err != nil {
			t.Fatal(err)
		}
		pass = httputil.NewSingleHostReverseProxy(u)
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !fault(w, r) {
			pass.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// answer writes one canned JSON response.
func answer(w http.ResponseWriter, code int, body string) bool {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintln(w, body)
	return true
}

func isEvents(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/events") }

// TestAttemptPollsAfterBrokenStream: an events stream that ends without its
// terminal line is not yet a failure — the coordinator polls the job record
// once, and a record reading done completes the range with no retry.
func TestAttemptPollsAfterBrokenStream(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 2, Trials: 8, ShardSize: 2}
	want := normalized(t, localValue(t, sp))
	backend := newWorker(t, run.Options{NoCache: true})
	var cut int32
	worker := faultWorker(t, backend, func(w http.ResponseWriter, r *http.Request) bool {
		if !isEvents(r) {
			return false
		}
		// Relay the whole stream but its terminal line: the job is finished
		// by the time the relayed stream ends.
		resp, err := http.Get(backend + r.URL.Path)
		if err != nil {
			return answer(w, http.StatusBadGateway, `{"error":"backend down"}`)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		lines := strings.SplitAfter(strings.TrimRight(string(body), "\n"), "\n")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, strings.Join(lines[:len(lines)-1], ""))
		atomic.AddInt32(&cut, 1)
		return true
	})

	val, st, err := coord.Execute(context.Background(), sp,
		coord.Options{Workers: []string{worker}, Warnings: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalized(t, val); got != want {
		t.Errorf("polled result diverged\n got %s\nwant %s", got, want)
	}
	if atomic.LoadInt32(&cut) == 0 {
		t.Fatal("no events stream was cut; the check proves nothing")
	}
	if st.Retries != 0 {
		t.Errorf("stats %+v, want no retries", st)
	}
}

// TestAttemptRetriesBadAnswers: a worker whose answer cannot complete the
// range fails the attempt, and the range is retried on the healthy worker:
// a stream that breaks while the record still reads running, a done record
// with no result, and a range sub-job answered with a finalized value
// instead of a partial. The healthy worker holds every submit until the
// faulty one has been asked, so it cannot take and steal every range first.
func TestAttemptRetriesBadAnswers(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 3, Trials: 8, ShardSize: 2}
	want := normalized(t, localValue(t, sp))
	backend := newWorker(t, run.Options{NoCache: true})

	for name, c := range map[string]struct{ submit, events, record string }{
		"stream broken, still running": {
			submit: `{"jobs":[{"id":"j","status":"running"}]}`,
			events: "", // an empty stream: no terminal line
			record: `{"id":"j","status":"running"}`,
		},
		"done without result": {
			submit: `{"jobs":[{"id":"j","status":"done"}]}`,
			record: `{"id":"j","status":"done"}`,
		},
		"done without partial": {
			submit: `{"jobs":[{"id":"j","status":"done"}]}`,
			record: `{"id":"j","status":"done","result":{}}`,
		},
	} {
		var hits int32
		asked := make(chan struct{})
		faulty := faultWorker(t, "", func(w http.ResponseWriter, r *http.Request) bool {
			if atomic.AddInt32(&hits, 1) == 1 {
				close(asked)
			}
			switch {
			case r.Method == http.MethodPost:
				return answer(w, http.StatusAccepted, c.submit)
			case isEvents(r):
				w.WriteHeader(http.StatusOK)
				io.WriteString(w, c.events)
				return true
			default:
				return answer(w, http.StatusOK, c.record)
			}
		})
		healthy := faultWorker(t, backend, func(w http.ResponseWriter, r *http.Request) bool {
			if r.Method == http.MethodPost {
				select {
				case <-asked:
				case <-time.After(30 * time.Second): // the stats check below reports it
				}
			}
			return false
		})
		val, st, err := coord.Execute(context.Background(), sp,
			coord.Options{Workers: []string{faulty, healthy}, Warnings: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := normalized(t, val); got != want {
			t.Errorf("%s: merged result diverged", name)
		}
		if atomic.LoadInt32(&hits) == 0 || st.Retries == 0 || st.Hedges != 0 || st.Workers != 1 {
			t.Errorf("%s: stats %+v after %d faulty requests, want retries on the healthy worker only",
				name, st, atomic.LoadInt32(&hits))
		}
	}
}

// TestAttemptResubmitsSkipped: a failure marked skipped — a batch sibling's,
// whether answered at submit or on the terminal event line — is resubmitted
// to the same worker, and the resubmission's answer completes the range
// without counting a retry.
func TestAttemptResubmitsSkipped(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 4, Trials: 4, ShardSize: 2}
	want := normalized(t, localValue(t, sp))
	skipped := fmt.Sprintf(`{"id":%q,"status":"failed","error":"skipped","skipped":true}`, sp.Hash())

	// The worker's cache holds the whole job, so the resubmission is
	// answered done at submit.
	dir := filepath.Join(t.TempDir(), "cache")
	sess, err := run.NewSession(run.Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run.ExecuteSpec(sess, sp); err != nil {
		t.Fatal(err)
	}
	warm := newWorker(t, run.Options{CacheDir: dir})
	cold := newWorker(t, run.Options{NoCache: true})

	for name, c := range map[string]struct {
		backend string
		fault   func(r *http.Request) bool // answer skipped to this request
	}{
		"at submit": {warm, func(r *http.Request) bool { return r.Method == http.MethodPost }},
		"on event":  {cold, isEvents},
	} {
		var posts, faults int32
		worker := faultWorker(t, c.backend, func(w http.ResponseWriter, r *http.Request) bool {
			if r.Method == http.MethodPost {
				atomic.AddInt32(&posts, 1)
			}
			if !c.fault(r) || atomic.AddInt32(&faults, 1) > 1 {
				return false
			}
			if isEvents(r) {
				return answer(w, http.StatusOK, skipped)
			}
			return answer(w, http.StatusAccepted, `{"jobs":[`+skipped+`]}`)
		})
		val, st, err := coord.Execute(context.Background(), sp,
			coord.Options{Workers: []string{worker}, Warnings: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := normalized(t, val); got != want {
			t.Errorf("%s: resubmitted result diverged\n got %s\nwant %s", name, got, want)
		}
		if n := atomic.LoadInt32(&posts); n != 2 {
			t.Errorf("%s: %d submissions, want the original and one resubmission", name, n)
		}
		if st.Ranges != 1 || st.Retries != 0 {
			t.Errorf("%s: stats %+v, want one range and no retries", name, st)
		}
	}
}

// TestAttemptPermanentFailureOnEventLine: a terminal event line reporting
// the job itself failed (not skipped) ends the range at once — the failure
// is deterministic, so no other attempt is made.
func TestAttemptPermanentFailureOnEventLine(t *testing.T) {
	var posts int32
	worker := faultWorker(t, "", func(w http.ResponseWriter, r *http.Request) bool {
		switch {
		case r.Method == http.MethodPost:
			atomic.AddInt32(&posts, 1)
			return answer(w, http.StatusAccepted, `{"jobs":[{"id":"j","status":"running"}]}`)
		case isEvents(r):
			return answer(w, http.StatusOK, `{"id":"j","status":"failed","error":"trial 2: boom"}`)
		}
		return false
	})
	_, st, err := coord.Execute(context.Background(),
		spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 4, ShardSize: 2},
		coord.Options{Workers: []string{worker}, Warnings: io.Discard})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err %v, want the job's own failure", err)
	}
	if n := atomic.LoadInt32(&posts); n != 1 || st.Retries != 0 {
		t.Errorf("%d submissions and stats %+v, want one submission and no retries", n, st)
	}
}
