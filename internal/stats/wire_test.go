package stats

import (
	"encoding/json"
	"errors"
	"fmt"
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
		{"negative infinity count", `{"gamma":1.02,"pos_inf":-1,"count":0}`, "negative count"},
		{"count below infinities", `{"gamma":1.02,"pos_inf":2,"neg_inf":1,"count":2}`, "count 2 differs from the 3 samples"},
		{"overflowing infinities", `{"gamma":1.02,"pos_inf":9223372036854775807,"zero":1,"count":9223372036854775807}`, "overflow"},
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
		`{"gamma":1.02,"pos":{"3":2},"pos_inf":1,"neg_inf":2,"count":5}`,
	} {
		var q QuantileSketch
		if err := json.Unmarshal([]byte(in), &q); err != nil {
			t.Errorf("decode %s: %v", in, err)
		}
	}
}

// TestSketchInfinities: ±Inf samples are counted apart from the log buckets,
// so Quantile(0) and Quantile(1) report them and they survive the wire and
// Merge. Filed under int(math.Ceil(±Inf)), which Go leaves to the platform,
// they once sat in the extreme finite buckets: Quantile(1) read 0.99 and
// Quantile(0) -0.
func TestSketchInfinities(t *testing.T) {
	q, err := NewQuantileSketch(DefaultSketchAlpha)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1, math.Inf(1), math.Inf(-1)} {
		q.Add(v)
	}
	check := func(label string, q *QuantileSketch, count int64) {
		t.Helper()
		if q.Count() != count {
			t.Errorf("%s: count %d, want %d", label, q.Count(), count)
		}
		if hi, err := q.Quantile(1); err != nil || !math.IsInf(hi, 1) {
			t.Errorf("%s: Quantile(1) = %v (%v), want +Inf", label, hi, err)
		}
		if lo, err := q.Quantile(0); err != nil || !math.IsInf(lo, -1) {
			t.Errorf("%s: Quantile(0) = %v (%v), want -Inf", label, lo, err)
		}
		if mid, err := q.Quantile(0.5); err != nil || math.Abs(mid-1) > 0.02 {
			t.Errorf("%s: Quantile(0.5) = %v (%v), want ≈ 1", label, mid, err)
		}
	}
	check("added", q, 3)

	b, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"pos":{"0":1},"pos_inf":1,"neg_inf":1,"count":3}`) || strings.Contains(string(b), `"neg":`) {
		t.Errorf("encoding %s, want the finite sample in bucket 0 and the infinities counted apart", b)
	}
	var back QuantileSketch
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	check("decoded", &back, 3)
	if err := back.Merge(q); err != nil {
		t.Fatal(err)
	}
	check("merged", &back, 6)
}

// TestSketchMergeOverflow: a merge whose sample count would overflow int64
// is refused and leaves the receiver unchanged; the top quantile of a sketch
// near that limit is the top sample, not a platform-defined conversion of a
// rank past the largest int64.
func TestSketchMergeOverflow(t *testing.T) {
	var big, one QuantileSketch
	if err := json.Unmarshal([]byte(`{"gamma":1.02,"pos":{"3":9223372036854775806},"zero":1,"count":9223372036854775807}`), &big); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"gamma":1.02,"zero":1,"count":1}`), &one); err != nil {
		t.Fatal(err)
	}
	before, _ := json.Marshal(big)
	if err := big.Merge(&one); err == nil || !strings.Contains(err.Error(), "overflows int64") {
		t.Errorf("overflowing merge: err %v", err)
	}
	if after, _ := json.Marshal(big); string(after) != string(before) {
		t.Errorf("refused merge changed the sketch: %s -> %s", before, after)
	}
	hi, err := big.Quantile(1)
	if want := 2 * math.Pow(1.02, 3) / 2.02; err != nil || hi != want {
		t.Errorf("Quantile(1) = %v (%v), want %v", hi, err, want)
	}
	if lo, err := big.Quantile(0); err != nil || lo != 0 {
		t.Errorf("Quantile(0) = %v (%v), want 0", lo, err)
	}
}

// sketchInvariant checks, independently of the decoder, the state Add and
// Merge keep: positive bucket counts, non-negative zero and infinity counts,
// and a count that is their sum.
func sketchInvariant(q *QuantileSketch) error {
	if q.zero < 0 || q.posInf < 0 || q.negInf < 0 {
		return fmt.Errorf("negative count")
	}
	held := q.zero + q.posInf + q.negInf
	for _, buckets := range []map[int]int64{q.pos, q.neg} {
		for i, c := range buckets {
			if c <= 0 {
				return fmt.Errorf("bucket %d holds %d", i, c)
			}
			held += c
		}
	}
	if held != q.count {
		return fmt.Errorf("count %d, buckets hold %d", q.count, held)
	}
	return nil
}

// FuzzQuantileSketchJSON decodes two sketches, merges the second into the
// first and asks for a quantile. Every step must give an error naming the
// sketch or an answer that meets the decoder's invariants — decoded and
// merged states whose count is their buckets' sum, a merged state that
// re-encodes to bytes the decoder accepts, and a quantile inside
// [Quantile(0), Quantile(1)] — and never panic. The seed corpus lives in
// testdata/fuzz/FuzzQuantileSketchJSON.
func FuzzQuantileSketchJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte, p float64) {
		var qa, qb QuantileSketch
		for _, in := range []struct {
			data []byte
			q    *QuantileSketch
		}{{a, &qa}, {b, &qb}} {
			if err := json.Unmarshal(in.data, in.q); err != nil {
				var syntax *json.SyntaxError
				if !errors.As(err, &syntax) && !strings.HasPrefix(err.Error(), "stats: QuantileSketch") {
					t.Fatalf("decode %q: unnamed error %v", in.data, err)
				}
				return
			}
			if err := sketchInvariant(in.q); err != nil {
				t.Fatalf("decoded %q breaks the sketch invariant: %v", in.data, err)
			}
		}
		before, err := json.Marshal(qa)
		if err != nil {
			t.Fatalf("decoded sketch does not encode: %v", err)
		}
		want := qa.Count() + qb.Count()
		if err := qa.Merge(&qb); err != nil {
			if !strings.HasPrefix(err.Error(), "stats: QuantileSketch.Merge") {
				t.Fatalf("merge: unnamed error %v", err)
			}
			if after, _ := json.Marshal(qa); string(after) != string(before) {
				t.Fatalf("refused merge changed the sketch: %s -> %s", before, after)
			}
			return
		}
		if qa.Count() != want {
			t.Fatalf("merged count %d, want %d", qa.Count(), want)
		}
		if err := sketchInvariant(&qa); err != nil {
			t.Fatalf("merge broke the sketch invariant: %v", err)
		}
		merged, err := json.Marshal(qa)
		if err != nil {
			t.Fatalf("merged sketch does not encode: %v", err)
		}
		var back QuantileSketch
		if err := json.Unmarshal(merged, &back); err != nil {
			t.Fatalf("merged state %s breaks the decoder's invariants: %v", merged, err)
		}

		v, err := qa.Quantile(p)
		switch {
		case qa.Count() == 0:
			if !errors.Is(err, ErrEmpty) {
				t.Fatalf("empty sketch Quantile(%v) = %v, %v; want ErrEmpty", p, v, err)
			}
			return
		case !(p >= 0 && p <= 1):
			if err == nil || !strings.HasPrefix(err.Error(), "stats: QuantileSketch.Quantile") {
				t.Fatalf("Quantile(%v) = %v, %v; want a p-range error", p, v, err)
			}
			return
		case err != nil:
			t.Fatalf("Quantile(%v) of %s: %v", p, merged, err)
		}
		lo, err1 := qa.Quantile(0)
		hi, err2 := qa.Quantile(1)
		if err1 != nil || err2 != nil || math.IsNaN(v) || v < lo || v > hi {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v] (%v, %v) for %s", p, v, lo, hi, err1, err2, merged)
		}
	})
}
