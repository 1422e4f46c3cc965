package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentHammering: many goroutines hammering one registry's
// counters, gauges, and histograms — the per-shard usage pattern of a big
// engine run — must be race-free (run under -race) and lose no updates.
func TestRegistryConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("trials_total")
			gg := r.Gauge("inflight")
			h := r.Histogram("latency_seconds", DefLatencyBuckets)
			for i := 0; i < perG; i++ {
				c.Inc()
				c.Add(2)
				gg.Add(1)
				gg.Add(-1)
				h.Observe(float64(i%7) * 0.001)
			}
		}(g)
	}
	wg.Wait()
	if got, want := r.Counter("trials_total").Value(), int64(goroutines*perG*3); got != want {
		t.Errorf("counter lost updates: got %d, want %d", got, want)
	}
	if got := r.Gauge("inflight").Value(); got != 0 {
		t.Errorf("gauge should balance to zero, got %d", got)
	}
	h := r.Histogram("latency_seconds", nil)
	if got, want := h.Count(), int64(goroutines*perG); got != want {
		t.Errorf("histogram count %d, want %d", got, want)
	}
	// Sum of i%7 over perG iterations, times 1ms, times goroutines.
	var per float64
	for i := 0; i < perG; i++ {
		per += float64(i%7) * 0.001
	}
	if got, want := h.Sum(), per*goroutines; math.Abs(got-want) > 1e-6*want {
		t.Errorf("histogram sum %g, want %g", got, want)
	}
}

// TestWritePrometheus pins the exposition format: typed families, sorted
// names, cumulative histogram buckets with a +Inf terminator.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(3)
	r.Counter("a_total").Add(1)
	r.Gauge("queue_depth").Set(5)
	h := r.Histogram("op_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE a_total counter",
		"a_total 1",
		"# TYPE b_total counter",
		"b_total 3",
		"# TYPE queue_depth gauge",
		"queue_depth 5",
		"# TYPE op_seconds histogram",
		`op_seconds_bucket{le="0.1"} 1`,
		`op_seconds_bucket{le="1"} 2`,
		`op_seconds_bucket{le="+Inf"} 3`,
		"op_seconds_sum 2.55",
		"op_seconds_count 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("prometheus output:\n%s\nwant:\n%s", got, want)
	}
}

// TestSnapshotJSON: the JSON snapshot round-trips and carries the same
// values the typed accessors report.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total").Add(7)
	r.Gauge("inflight").Set(2)
	r.Histogram("h_seconds", []float64{1}).Observe(0.5)

	buf, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if snap.Counters["jobs_total"] != 7 || snap.Gauges["inflight"] != 2 {
		t.Errorf("snapshot values: %+v", snap)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 1 {
		t.Errorf("snapshot histograms: %+v", snap.Histograms)
	}
}

// TestHistogramBucketEdges: a sample exactly on a bound lands in that
// bound's bucket (Prometheus le semantics), and NaN is dropped.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(3) // +Inf
	h.Observe(math.NaN())
	if got := []int64{h.buckets[0].Load(), h.buckets[1].Load(), h.buckets[2].Load()}; got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Errorf("bucket counts %v, want [1 1 1]", got)
	}
	if h.Count() != 3 {
		t.Errorf("count %d, want 3 (NaN dropped)", h.Count())
	}
}

// TestHistogramSnapshotConsistentUnderObserve: snapshots taken while other
// goroutines observe must agree with themselves — the count equals the
// total of the reported buckets, and the Prometheus +Inf bucket equals
// _count — because Prometheus requires it and a scraper mid-run sees
// exactly this interleaving.
func TestHistogramSnapshotConsistentUnderObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds", []float64{0.001, 0.01, 0.1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64((i+g)%5) * 0.02)
			}
		}(g)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	snapshots := 2000
	if testing.Short() {
		snapshots = 500
	}
	for i := 0; i < snapshots; i++ {
		hs := r.Snapshot().Histograms[0]
		var total int64
		for _, b := range hs.Buckets {
			total += b
		}
		if total != hs.Count {
			t.Fatalf("snapshot %d: buckets total %d, count %d", i, total, hs.Count)
		}
		if i%10 != 0 {
			continue
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var inf, count string
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `op_seconds_bucket{le="+Inf"} `); ok {
				inf = v
			}
			if v, ok := strings.CutPrefix(line, "op_seconds_count "); ok {
				count = v
			}
		}
		if inf == "" || inf != count {
			t.Fatalf("exposition %d: +Inf bucket %q, _count %q", i, inf, count)
		}
	}
}
