package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"resilientloc/internal/engine/cache"
	"resilientloc/internal/engine/spec"
)

// TestEveryWorkloadReportsEndToEndMetrics runs each workload at three jobs
// a pass and checks the summary line: every end-to-end metric by name and
// unit, every job of every pass verified.
func TestEveryWorkloadReportsEndToEndMetrics(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := locbench([]string{"-workload", w.name, "-seed", "1", "-jobs", "3", "-work-dir", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line summaryLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
			}
			if !line.Correct || line.Failed != 0 || line.Attempted != 3*w.passes {
				t.Errorf("correct=%v attempted=%d failed=%d, want true/%d/0", line.Correct, line.Attempted, line.Failed, 3*w.passes)
			}
			if len(line.Metrics) != len(endToEndDefs) {
				t.Errorf("%d metrics, want %d", len(line.Metrics), len(endToEndDefs))
			}
			for _, d := range endToEndDefs {
				m, ok := line.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("metric %s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
			if !strings.Contains(stdout.String(), w.name+" failed_frac 0 ratio\n") {
				t.Errorf("no failed_frac 0 line:\n%s", stdout.String())
			}
		})
	}
}

// TestQueuesAreSeeded checks that a workload's job list is a function of
// the seed: the same seed gives the same list, another seed another one.
func TestQueuesAreSeeded(t *testing.T) {
	specs := func(q []job) []spec.JobSpec {
		out := make([]spec.JobSpec, len(q))
		for i, j := range q {
			out[i] = j.spec
		}
		return out
	}
	for _, w := range workloads() {
		a, b, c := specs(w.queue(1)), specs(w.queue(1)), specs(w.queue(7))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two queues at seed 1 differ", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 7 give the same queue", w.name)
		}
		seen := map[string]bool{}
		for _, sp := range a {
			if seen[sp.Hash()] {
				t.Errorf("%s: queue repeats job %s seed %d", w.name, sp.ID, sp.Seed)
			}
			seen[sp.Hash()] = true
		}
	}
}

// TestWarmQueueKeepsTheMix checks that every block of the warm-mixed queue
// holds exactly 60% hits, 25% misses and 15% extensions, so a run of whole
// blocks has the same mix at every seed.
func TestWarmQueueKeepsTheMix(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		q := warmQueue(seed)
		for lo := 0; lo < len(q); lo += warmBlock {
			n := map[string]int{}
			for _, j := range q[lo : lo+warmBlock] {
				n[j.class]++
			}
			if n[classHit] != 12 || n[classMiss] != 5 || n[classExtend] != 3 {
				t.Fatalf("seed %d: block at %d holds %v, want 12 hits, 5 misses, 3 extensions", seed, lo, n)
			}
		}
	}
}

// TestLiveKeysMissStaleFiller checks that the warm-mixed filler, written
// under a foreign build fingerprint, is never served to this binary: the
// live twin of every filler key misses, and a live range probe finds its
// own cached prefix and none of the filler.
func TestLiveKeysMissStaleFiller(t *testing.T) {
	h, err := newHarness(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := warmQueue(1)[:20]
	if err := prepareWarm(h, q); err != nil {
		t.Fatal(err)
	}
	c, err := cache.Open(h.template)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(h.template, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stale []cache.Key
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Key cache.Key `json:"key"`
		}
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatal(err)
		}
		if e.Key.Fingerprint == staleFingerprint {
			stale = append(stale, e.Key)
		}
	}
	if len(stale) != 2*staleEntries {
		t.Fatalf("%d filler entries, want %d", len(stale), 2*staleEntries)
	}
	for _, k := range stale {
		k.Fingerprint = cache.Fingerprint()
		var v spec.Value
		if hit, err := c.Get(k, &v); hit || err != nil {
			t.Fatalf("live twin of filler key %+v: hit=%v err=%v", k, hit, err)
		}
	}

	var ext spec.JobSpec
	for _, j := range q {
		if j.class == classExtend {
			ext = j.spec
			break
		}
	}
	if ext.ID == "" {
		t.Fatal("no extension among the first jobs")
	}
	probe := func(sp spec.JobSpec) []cache.RangeEntry {
		t.Helper()
		job, err := spec.Resolve(sp)
		if err != nil {
			t.Fatal(err)
		}
		ranges, err := c.RangeEntries(cache.Key{Kind: sp.Kind, Scenario: job.Campaign.Scenario.Name, Seed: sp.Seed,
			ShardSize: job.ShardSize, Fingerprint: cache.Fingerprint(), Params: string(job.Params.Canonical())})
		if err != nil {
			t.Fatal(err)
		}
		return ranges
	}
	if got := probe(ext); len(got) != 1 || got[0].Lo != 0 || got[0].Hi != prefixTrials {
		t.Errorf("live probe of extension %d found %v, want its [0, %d) prefix alone", ext.Seed, got, prefixTrials)
	}
	twin := mobilitySpec(stale[0].Seed, stale[0].Trials)
	twin.ShardSize = stale[0].ShardSize
	if got := probe(twin); len(got) != 0 {
		t.Errorf("live probe of a filler twin found %v, want nothing", got)
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and locbench's
// metric tables in step: the same workloads, end-to-end metrics and
// per-layer metrics, with the same units and directions.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, locbench %v", names, workloadNames())
	}
	var e2e, layers []entry
	for _, d := range endToEndDefs {
		e2e = append(e2e, entry{d.name, d.unit, d.better})
	}
	for _, d := range layerDefs {
		layers = append(layers, entry{d.name, d.unit, d.better})
	}
	if !reflect.DeepEqual(doc.EndToEnd, e2e) {
		t.Errorf("BENCHMARK.json end_to_end %v, locbench %v", doc.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(doc.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer %v, locbench %v", doc.PerLayer, layers)
	}
}

func TestUnionUS(t *testing.T) {
	for _, tc := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 10}, {0, 3}}, 8},
		{[][2]int64{{0, 10}, {2, 4}, {8, 15}}, 15},
	} {
		if got := unionUS(tc.iv); got != tc.want {
			t.Errorf("unionUS(%v) = %d, want %d", tc.iv, got, tc.want)
		}
	}
}
