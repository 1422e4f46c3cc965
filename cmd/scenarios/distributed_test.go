package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"resilientloc/internal/engine"
	enginerun "resilientloc/internal/engine/run"
	"resilientloc/internal/locsrv"
)

// distWorkers stands up two real locd services for the -workers flag.
func distWorkers(t *testing.T) string {
	t.Helper()
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := locsrv.New(enginerun.Options{CacheDir: filepath.Join(t.TempDir(), "cache")})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { srv.Close(); hs.Close() })
		urls = append(urls, hs.URL)
	}
	return strings.Join(urls, ",")
}

// TestWorkersFlagMatchesLocalRun: -workers routes the same specs through
// the distributed coordinator and produces the same aggregates as the local
// path (execution metadata aside).
func TestWorkersFlagMatchesLocalRun(t *testing.T) {
	args := []string{"-run", "multilat-town", "-trials", "6", "-seed", "3", "-json", "-no-cache"}
	var local bytes.Buffer
	if err := run(args, &local); err != nil {
		t.Fatal(err)
	}
	var dist bytes.Buffer
	if err := run(append(args, "-workers", distWorkers(t)), &dist); err != nil {
		t.Fatal(err)
	}
	var lr, dr []*engine.Report
	if err := json.Unmarshal(local.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(dist.Bytes(), &dr); err != nil {
		t.Fatalf("invalid distributed JSON: %v\n%s", err, dist.String())
	}
	if len(lr) != 1 || len(dr) != 1 {
		t.Fatalf("got %d local / %d distributed reports", len(lr), len(dr))
	}
	lr[0].ClearExecutionMeta()
	dr[0].ClearExecutionMeta()
	lj, _ := json.Marshal(lr[0])
	dj, _ := json.Marshal(dr[0])
	if string(lj) != string(dj) {
		t.Errorf("-workers aggregates diverged\nlocal %s\ndist  %s", lj, dj)
	}
}

// TestWorkersRejectsLocalFlags: -parallel, -suite-parallel, -cache and
// -cache-gc configure only a local session, so setting one explicitly with
// -workers is a named error rather than a silently ignored flag.
func TestWorkersRejectsLocalFlags(t *testing.T) {
	workers := distWorkers(t)
	for _, flags := range [][]string{
		{"-parallel", "2"},
		{"-suite-parallel", "2"},
		{"-cache", t.TempDir()},
		{"-cache-gc", "off"},
	} {
		args := append([]string{"-run", "multilat-town", "-trials", "2", "-json", "-workers", workers}, flags...)
		err := run(args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), flags[0]) || !strings.Contains(err.Error(), "-workers") {
			t.Errorf("%v with -workers: err = %v, want a named rejection", flags, err)
		}
	}
}
