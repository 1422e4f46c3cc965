package coord_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/locsrv"
)

// routeLog records the requests a worker receives, as "METHOD path", and
// the trial ranges of the sub-jobs submitted to it.
type routeLog struct {
	mu     sync.Mutex
	routes []string
	ranges []spec.Range
}

func (l *routeLog) count(route string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, r := range l.routes {
		if r == route {
			n++
		}
	}
	return n
}

// loggedWorker is newWorker with every request recorded in the log.
func loggedWorker(t *testing.T, opts run.Options, log *routeLog) string {
	t.Helper()
	srv, err := locsrv.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		log.mu.Lock()
		log.routes = append(log.routes, r.Method+" "+r.URL.Path)
		log.mu.Unlock()
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			if specs, err := spec.Decode(bytes.NewReader(body)); err == nil && len(specs) == 1 && specs[0].TrialRange != nil {
				log.mu.Lock()
				log.ranges = append(log.ranges, *specs[0].TrialRange)
				log.mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { srv.Close(); hs.Close() })
	return hs.URL
}

// TestCachedRangeSkipsEventsStream: with Reuse off, a range whose partial
// the worker's cache already holds is answered done at submit, so the
// coordinator takes it with one job fetch and never opens its events
// stream; the ranges the worker computes still stream, and the merged
// bytes equal the cold run's.
func TestCachedRangeSkipsEventsStream(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 6, Trials: 8, ShardSize: 2}

	// A cold coordination learns the split and the reference bytes.
	var cold routeLog
	coldWorker := loggedWorker(t, run.Options{CacheDir: filepath.Join(t.TempDir(), "cache")}, &cold)
	coldVal, _, err := coord.Execute(context.Background(), sp,
		coord.Options{Workers: []string{coldWorker}, Warnings: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.ranges) < 2 {
		t.Fatalf("cold run split into %d ranges, want at least 2", len(cold.ranges))
	}
	if got, want := normalized(t, coldVal), normalized(t, localValue(t, sp)); got != want {
		t.Fatalf("cold coordination diverged from the local run\n got %s\nwant %s", got, want)
	}

	// Bank the first range's partial in a fresh cache, then coordinate
	// again over a worker serving it.
	banked := cold.ranges[0]
	dir := filepath.Join(t.TempDir(), "cache")
	sess, err := run.NewSession(run.Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run.ExecuteSpec(sess, subRange(sp, banked.Lo, banked.Hi)); err != nil {
		t.Fatal(err)
	}
	var warm routeLog
	worker := loggedWorker(t, run.Options{CacheDir: dir}, &warm)
	val, _, err := coord.Execute(context.Background(), sp,
		coord.Options{Workers: []string{worker}, Warnings: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalized(t, val), normalized(t, coldVal); got != want {
		t.Errorf("warm coordination diverged from the cold run\n got %s\nwant %s", got, want)
	}

	id := subRange(sp, banked.Lo, banked.Hi).Hash()
	if n := warm.count("GET /v1/jobs/" + id + "/events"); n != 0 {
		t.Errorf("cached range [%d, %d) opened %d events streams, want none", banked.Lo, banked.Hi, n)
	}
	if n := warm.count("GET /v1/jobs/" + id); n != 1 {
		t.Errorf("cached range [%d, %d) fetched %d times, want once", banked.Lo, banked.Hi, n)
	}
	other := cold.ranges[1]
	otherID := subRange(sp, other.Lo, other.Hi).Hash()
	if n := warm.count("GET /v1/jobs/" + otherID + "/events"); n == 0 {
		t.Errorf("computed range [%d, %d) opened no events stream; the check above proves nothing", other.Lo, other.Hi)
	}
}
