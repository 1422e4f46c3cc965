package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock ticks one millisecond per reading from a fixed epoch, making
// span timestamps (and therefore exports) fully deterministic.
func fakeClock() func() time.Time {
	base := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

// buildTree constructs the three-layer span shape the distributed stack
// records — coordinator range → (imported) worker job → engine shards —
// entirely through the public context API.
func buildTree(t *testing.T) *Tracer {
	t.Helper()

	// The "worker side": a job span with two shard children.
	wt := NewTracer()
	wt.now = fakeClock()
	wctx := WithTracer(context.Background(), wt)
	jctx, job := Start(wctx, "run.job")
	job.SetAttr("job", "abc123").SetAttr("scenario", "multilat-town")
	_, sh0 := Start(jctx, "engine.shard")
	sh0.SetAttr("shard", 0)
	sh0.End()
	_, sh1 := Start(jctx, "engine.shard")
	sh1.SetAttr("shard", 1)
	sh1.End()
	job.End()

	// The "coordinator side": a job span, a range span, an attempt span —
	// with the worker's exported subtree grafted under the range.
	ct := NewTracer()
	ct.now = fakeClock()
	cctx := WithTracer(context.Background(), ct)
	ecctx, exec := Start(cctx, "coord.job")
	exec.SetAttr("id", "multilat-town")
	rctx, rng := Start(ecctx, "coord.range")
	rng.SetAttr("lo", 0).SetAttr("hi", 4)
	_, att := Start(rctx, "coord.attempt")
	att.SetAttr("worker", "http://w1")
	att.End()
	ct.Import(rng, wt.Export())
	rng.End()
	exec.End()
	return ct
}

// TestChromeTraceGolden pins the Chrome trace_event export of a
// deterministic three-layer span tree byte-for-byte.
func TestChromeTraceGolden(t *testing.T) {
	ct := buildTree(t)
	var buf bytes.Buffer
	if err := ct.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	// The export must parse as a JSON array of events regardless of the
	// golden bytes — the property external trace viewers depend on.
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range events {
		names[ev["name"].(string)] = true
		for _, field := range []string{"ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Errorf("event %v missing %q", ev["name"], field)
			}
		}
	}
	for _, want := range []string{"coord.job", "coord.range", "coord.attempt", "run.job", "engine.shard"} {
		if !names[want] {
			t.Errorf("exported trace lacks a %q span", want)
		}
	}
}

// TestImportRemapsUnderParent: imported records get fresh IDs, internal
// parent links survive the remap, and orphans attach to the graft point.
func TestImportRemapsUnderParent(t *testing.T) {
	ct := buildTree(t)
	recs := ct.Export()
	byName := func(name string) []SpanRecord {
		var out []SpanRecord
		for _, r := range recs {
			if r.Name == name {
				out = append(out, r)
			}
		}
		return out
	}
	jobs := byName("run.job")
	if len(jobs) != 1 {
		t.Fatalf("want 1 imported run.job span, got %d", len(jobs))
	}
	rng := byName("coord.range")[0]
	if jobs[0].Parent != rng.ID {
		t.Errorf("imported job's parent = %d, want the coord.range span %d", jobs[0].Parent, rng.ID)
	}
	for _, sh := range byName("engine.shard") {
		if sh.Parent != jobs[0].ID {
			t.Errorf("imported shard's parent = %d, want the imported job %d", sh.Parent, jobs[0].ID)
		}
	}
}

// TestSubtree: extracting a job's spans from a batch tracer keeps exactly
// the root match and its descendants.
func TestSubtree(t *testing.T) {
	tr := NewTracer()
	tr.now = fakeClock()
	ctx := WithTracer(context.Background(), tr)
	j1ctx, j1 := Start(ctx, "run.job")
	j1.SetAttr("job", "one")
	_, s1 := Start(j1ctx, "engine.shard")
	s1.End()
	j1.End()
	j2ctx, j2 := Start(ctx, "run.job")
	j2.SetAttr("job", "two")
	_, s2 := Start(j2ctx, "engine.shard")
	s2.End()
	j2.End()

	sub := Subtree(tr.Export(), func(r SpanRecord) bool {
		return r.Name == "run.job" && r.Attrs["job"] == "one"
	})
	if len(sub) != 2 {
		t.Fatalf("subtree has %d spans, want 2 (job + shard): %+v", len(sub), sub)
	}
	for _, r := range sub {
		if r.Attrs["job"] == "two" {
			t.Errorf("subtree leaked a span of the other job: %+v", r)
		}
	}
}

// TestDisabledTracingZeroAlloc: Start on a tracer-less context must not
// allocate, and the nil span's methods must be no-ops — the guarantee that
// lets the engine's per-shard hot path stay instrumented unconditionally.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := Start(ctx, "engine.shard")
		if sp != nil || c2 != ctx {
			t.Fatal("disabled Start must return the same ctx and a nil span")
		}
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled Start allocates %.1f times per call, want 0", allocs)
	}
	var nilSpan *Span
	nilSpan.SetAttr("k", "v") // must not panic
	nilSpan.End()
}

// TestNestedSpansParentage: context nesting produces the parent links.
func TestNestedSpansParentage(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	c1, root := Start(ctx, "root")
	c2, mid := Start(c1, "mid")
	_, leaf := Start(c2, "leaf")
	leaf.End()
	mid.End()
	root.End()
	recs := tr.Export()
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root has parent %d", byName["root"].Parent)
	}
	if byName["mid"].Parent != byName["root"].ID || byName["leaf"].Parent != byName["mid"].ID {
		t.Errorf("parent chain broken: %+v", recs)
	}
}
