package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"resilientloc/internal/engine/run"
	"resilientloc/internal/locsrv"
)

// distWorkers stands up two real locd services for the -workers flag.
func distWorkers(t *testing.T) string {
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

// TestWorkersFlagMatchesLocalJSON: figure results carry no execution
// metadata, so -workers -json output is byte-identical to the local run.
func TestWorkersFlagMatchesLocalJSON(t *testing.T) {
	args := []string{"-only", "maxrange", "-seed", "1", "-json", "-no-cache"}
	var local bytes.Buffer
	if err := realMain(args, &local); err != nil {
		t.Fatal(err)
	}
	var dist bytes.Buffer
	if err := realMain(append(args, "-workers", distWorkers(t)), &dist); err != nil {
		t.Fatal(err)
	}
	if local.String() != dist.String() {
		t.Errorf("-workers JSON output diverged from local run\nlocal %s\ndist  %s", local.String(), dist.String())
	}
}

// TestWorkersFlagReusesFleetCache: like locc and cmd/scenarios, -workers
// adopts what the fleet's caches hold, so repeating a distributed figure
// submits no job at all and still prints the same bytes.
func TestWorkersFlagReusesFleetCache(t *testing.T) {
	srv, err := locsrv.New(run.Options{CacheDir: filepath.Join(t.TempDir(), "cache")})
	if err != nil {
		t.Fatal(err)
	}
	var submits atomic.Int32
	h := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			submits.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { srv.Close(); hs.Close() })

	args := []string{"-only", "maxrange", "-seed", "1", "-json", "-workers", hs.URL}
	var first, second bytes.Buffer
	if err := realMain(args, &first); err != nil {
		t.Fatal(err)
	}
	if submits.Load() == 0 {
		t.Fatal("the cold run submitted no jobs")
	}
	submits.Store(0)
	if err := realMain(args, &second); err != nil {
		t.Fatal(err)
	}
	if n := submits.Load(); n != 0 {
		t.Errorf("the repeated run submitted %d jobs, want 0 (every range is cached on the worker)", n)
	}
	if first.String() != second.String() {
		t.Errorf("reused run diverged\nfirst  %s\nsecond %s", first.String(), second.String())
	}
}

// TestWorkersNoCacheRunsCold: under -workers, -no-cache means a cold fleet
// run (coord.Options.Reuse off), as locc's -reuse=false does, so a repeat
// against a warm worker still submits jobs and prints the same figure. Text
// output ends each figure in the coordinator's status line.
func TestWorkersNoCacheRunsCold(t *testing.T) {
	srv, err := locsrv.New(run.Options{CacheDir: filepath.Join(t.TempDir(), "cache")})
	if err != nil {
		t.Fatal(err)
	}
	var submits atomic.Int32
	h := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			submits.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { srv.Close(); hs.Close() })

	args := []string{"-only", "maxrange", "-seed", "1", "-json", "-workers", hs.URL}
	var warm, cold bytes.Buffer
	if err := realMain(args, &warm); err != nil {
		t.Fatal(err)
	}
	submits.Store(0)
	if err := realMain(append(args, "-no-cache"), &cold); err != nil {
		t.Fatal(err)
	}
	if submits.Load() == 0 {
		t.Error("-no-cache -workers submitted no jobs; the fleet's cache answered instead of a cold run")
	}
	if warm.String() != cold.String() {
		t.Errorf("cold fleet run diverged\nwarm %s\ncold %s", warm.String(), cold.String())
	}

	var text bytes.Buffer
	if err := realMain([]string{"-only", "maxrange", "-seed", "1", "-progress=false", "-workers", hs.URL}, &text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "  (distributed: ") || !strings.Contains(text.String(), " retries (") {
		t.Errorf("text output lacks the coordinator's status line:\n%s", text.String())
	}
}
