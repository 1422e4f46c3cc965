package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestF64RoundTrip: every float64 — finite (exact bits), NaN, ±Inf, signed
// zero — survives the wire encoding.
func TestF64RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float64{0, math.Copysign(0, -1), 1, -1, math.Pi, 1e-300, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i := 0; i < 200; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		if math.IsNaN(v) && rng.Intn(2) == 0 {
			v = math.NaN()
		}
		b, err := json.Marshal(F64(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got F64
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if math.IsNaN(v) {
			if !math.IsNaN(float64(got)) {
				t.Errorf("NaN round-tripped to %v", got)
			}
			continue
		}
		if math.Float64bits(float64(got)) != math.Float64bits(v) {
			t.Errorf("%v (bits %x) round-tripped to %v (bits %x) via %s",
				v, math.Float64bits(v), got, math.Float64bits(float64(got)), b)
		}
	}

	var f F64
	if err := json.Unmarshal([]byte(`"bogus"`), &f); err == nil {
		t.Error("unknown sentinel accepted")
	}
}

// TestOnlineWireRoundTrip: a decoded accumulator carries the exact state —
// continuing to Add and Merge produces bit-identical results to the
// original.
func TestOnlineWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var o Online
	for i := 0; i < 137; i++ {
		o.Add(rng.NormFloat64() * 10)
	}
	b, err := json.Marshal(&o)
	if err != nil {
		t.Fatal(err)
	}
	var back Online
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != o {
		t.Fatalf("state changed over the wire: %+v vs %+v", back, o)
	}

	// Merging the decoded copy behaves identically to merging the original.
	var other Online
	for i := 0; i < 41; i++ {
		other.Add(rng.ExpFloat64())
	}
	a, c := other, other
	a.Merge(&o)
	c.Merge(&back)
	if a != c {
		t.Fatalf("merge diverged after round trip: %+v vs %+v", a, c)
	}

	// The zero accumulator survives too.
	var zero, zback Online
	b, _ = json.Marshal(&zero)
	if err := json.Unmarshal(b, &zback); err != nil || zback != zero {
		t.Fatalf("zero accumulator round trip: %+v, %v", zback, err)
	}
}

// TestSketchWireRoundTrip: a decoded sketch reports the same count and the
// same quantiles, and merges exactly like the original (bucket counts are
// integers; gamma round-trips bit-exactly).
func TestSketchWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q, err := NewQuantileSketch(DefaultSketchAlpha)
	if err != nil {
		t.Fatal(err)
	}
	q.Add(0)
	for i := 0; i < 211; i++ {
		q.Add(rng.NormFloat64() * 3)
	}
	b, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var back QuantileSketch
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != q.Count() {
		t.Fatalf("count %d, want %d", back.Count(), q.Count())
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		want, err1 := q.Quantile(p)
		got, err2 := back.Quantile(p)
		if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("p=%g: %v (%v) vs %v (%v)", p, got, err2, want, err1)
		}
	}

	// Merge into a fresh default-alpha sketch works on both and agrees.
	m1, _ := NewQuantileSketch(DefaultSketchAlpha)
	m2, _ := NewQuantileSketch(DefaultSketchAlpha)
	if err := m1.Merge(q); err != nil {
		t.Fatal(err)
	}
	if err := m2.Merge(&back); err != nil {
		t.Fatal(err)
	}
	p1, _ := m1.Quantile(0.5)
	p2, _ := m2.Quantile(0.5)
	if math.Float64bits(p1) != math.Float64bits(p2) {
		t.Errorf("post-merge medians diverge: %v vs %v", p1, p2)
	}

	// The wire encoding of a given state is deterministic (map keys are
	// ordered by encoding/json), so encodings can be compared byte-wise.
	b2, _ := json.Marshal(q)
	if string(b) != string(b2) {
		t.Error("sketch encoding is not deterministic")
	}

	var bad QuantileSketch
	if err := json.Unmarshal([]byte(`{"gamma":0.5,"count":0}`), &bad); err == nil {
		t.Error("invalid gamma accepted")
	}
}

// TestSketchWireRejectsForgedState: the decoder refuses every state Add and
// Merge can never produce — a bucket holding no or a negative count, a count
// that differs from the zero bucket plus every bucket, and bucket sums that
// overflow int64 — each with an error naming the defect. Before these checks,
// the two mismatched-count inputs decoded and Quantile(0.5) then failed with
// its unreachable "internal rank overflow".
func TestSketchWireRejectsForgedState(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"count without buckets", `{"gamma":1.02,"count":5}`, "differs from the 0 samples"},
		{"negative bucket", `{"gamma":1.02,"pos":{"3":-4},"count":1}`, "bucket 3 has non-positive count -4"},
		{"empty bucket", `{"gamma":1.02,"neg":{"-2":0},"count":0}`, "bucket -2 has non-positive count 0"},
		{"count above buckets", `{"gamma":1.02,"pos":{"3":2},"zero":1,"count":4}`, "count 4 differs from the 3 samples"},
		{"count below buckets", `{"gamma":1.02,"pos":{"3":2},"neg":{"1":2},"count":3}`, "count 3 differs from the 4 samples"},
		{"overflowing buckets", `{"gamma":1.02,"pos":{"3":9223372036854775807},"zero":1,"count":9223372036854775807}`, "overflow"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q QuantileSketch
			err := json.Unmarshal([]byte(tc.in), &q)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode %s: err %v, want one containing %q", tc.in, err, tc.want)
			}
		})
	}

	// The states Add and Merge do produce still decode.
	for _, in := range []string{
		`{"gamma":1.02,"count":0}`,
		`{"gamma":1.02,"zero":2,"count":2}`,
		`{"gamma":1.02,"pos":{"3":2},"neg":{"1":1},"zero":1,"count":4}`,
	} {
		var q QuantileSketch
		if err := json.Unmarshal([]byte(in), &q); err != nil {
			t.Errorf("decode %s: %v", in, err)
		}
	}
}
