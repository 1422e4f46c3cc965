package run_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
)

// jsonEqual compares two values by their JSON bytes.
func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
}

func rangeSpec(sp spec.JobSpec, lo, hi int) spec.JobSpec {
	sp.TrialRange = &spec.Range{Lo: lo, Hi: hi}
	return sp
}

// TestPartialSpecExecutesRange: a spec with a proper trial sub-range
// executes only that range, returns a Value.Partial (never a finalized
// result), and the ranges of one job merge back to the full job's result.
func TestPartialSpecExecutesRange(t *testing.T) {
	s := newSession(t, run.Options{NoCache: true})
	full, _, err := run.ExecuteSpec(s, scenSpec("multilat-town", 1, 8, 2))
	if err != nil {
		t.Fatal(err)
	}

	var parts []*engine.Partial
	executed := s.TrialsExecuted()
	for _, rg := range [][2]int{{0, 3}, {3, 8}} {
		res, info, err := run.ExecuteSpec(s, rangeSpec(scenSpec("multilat-town", 1, 8, 2), rg[0], rg[1]))
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial == nil || res.Report != nil || res.Figure != nil {
			t.Fatalf("range %v: result %+v, want a bare Partial", rg, res)
		}
		if want := rg[1] - rg[0]; info.Trials != want {
			t.Errorf("range %v: info reports %d trials, want %d", rg, info.Trials, want)
		}
		parts = append(parts, res.Partial)
	}
	if got := s.TrialsExecuted() - executed; got != 8 {
		t.Errorf("partial runs computed %d trials, want 8", got)
	}

	rep, err := engine.MergePartials(parts)
	if err != nil {
		t.Fatal(err)
	}
	rep.SetExecutionMeta(full.Report.Workers, full.Report.ElapsedSeconds)
	if !jsonEqual(t, rep, full.Report) {
		t.Error("merged partial ranges diverged from the full job")
	}

	// A range beyond the job's trials is rejected.
	if _, _, err := run.ExecuteSpec(s, rangeSpec(scenSpec("multilat-town", 1, 8, 2), 4, 12)); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized range: err %v, want rejection", err)
	}
}

// TestPartialResultsAreCached: partial results are cached under their own
// range-extended content address — the coordination record — so a retried
// or duplicate range submission recomputes nothing; and the partial entry
// never collides with the full job's entry.
func TestPartialResultsAreCached(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	sub := rangeSpec(scenSpec("multilat-town", 1, 8, 2), 2, 6)

	s := newSession(t, run.Options{CacheDir: dir})
	res, info, err := run.ExecuteSpec(s, sub)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached || info.CacheKey == "" || res.Partial == nil {
		t.Fatalf("first partial run: cached=%v key=%q partial=%v", info.Cached, info.CacheKey, res.Partial != nil)
	}

	again, info2, err := run.ExecuteSpec(s, sub)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Cached || info2.Trials != 4 || again.Partial == nil {
		t.Fatalf("second partial run: cached=%v trials=%d", info2.Cached, info2.Trials)
	}
	if !jsonEqual(t, again.Partial, res.Partial) {
		t.Error("cached partial differs from computed one")
	}

	// The full job misses the partial's entry (distinct content address)
	// and computes its own.
	fullRes, fullInfo, err := run.ExecuteSpec(s, scenSpec("multilat-town", 1, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if fullInfo.Cached || fullRes.Partial != nil || fullRes.Report == nil {
		t.Fatalf("full job after partial: cached=%v result=%+v", fullInfo.Cached, fullRes)
	}
	if fullInfo.CacheKey == info.CacheKey {
		t.Error("full and partial jobs share a cache key")
	}

	// Figure partials cache too.
	fig := rangeSpec(figSpec("maxrange", 1), 0, 9)
	if _, i1, err := run.ExecuteSpec(s, fig); err != nil || i1.Cached {
		t.Fatalf("figure partial first run: %v cached=%v", err, i1.Cached)
	}
	if _, i2, err := run.ExecuteSpec(s, fig); err != nil || !i2.Cached {
		t.Fatalf("figure partial second run: %v cached=%v, want hit", err, i2.Cached)
	}
}
