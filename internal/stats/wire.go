package stats

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// This file is the wire layer of the mergeable aggregators: exact JSON
// encodings for Online and QuantileSketch, so a partial Monte Carlo run can
// ship its shard aggregates to another process and the receiver can merge
// them into byte-for-byte the same result a single-process run computes.
//
// Exactness is the entire point. Finite float64 values round-trip exactly
// through JSON (Go emits the shortest decimal that parses back to the same
// bits), sketch bucket counts are integers, and the only values JSON cannot
// represent — NaN and the infinities — are carried by F64 as quoted
// sentinels instead of failing to encode.

// F64 is a float64 that survives JSON exactly: finite values use the normal
// number encoding (shortest round-trip form), while NaN and ±Inf — which
// encoding/json rejects — are encoded as the quoted strings "NaN", "+Inf",
// and "-Inf". Aggregate wire types use it for every field a sample value
// can reach.
type F64 float64

// MarshalJSON implements json.Marshaler.
func (f F64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *F64) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = F64(math.NaN())
		case "+Inf", "Inf":
			*f = F64(math.Inf(1))
		case "-Inf":
			*f = F64(math.Inf(-1))
		default:
			return fmt.Errorf("stats: F64: unknown sentinel %q", s)
		}
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("stats: F64: %w", err)
	}
	*f = F64(v)
	return nil
}

// ToF64 converts a float64 slice to its wire form.
func ToF64(vs []float64) []F64 {
	if vs == nil {
		return nil
	}
	out := make([]F64, len(vs))
	for i, v := range vs {
		out[i] = F64(v)
	}
	return out
}

// FromF64 converts a wire slice back to float64.
func FromF64(vs []F64) []float64 {
	if vs == nil {
		return nil
	}
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}

// onlineWire is Online's stored form: the exact accumulator state, not the
// derived statistics, so a decoded accumulator continues (and merges)
// bit-identically to the original.
type onlineWire struct {
	N    int64 `json:"n"`
	Mean F64   `json:"mean"`
	M2   F64   `json:"m2"`
	Min  F64   `json:"min"`
	Max  F64   `json:"max"`
}

// MarshalJSON encodes the accumulator's exact state.
func (o Online) MarshalJSON() ([]byte, error) {
	return json.Marshal(onlineWire{
		N: o.n, Mean: F64(o.mean), M2: F64(o.m2), Min: F64(o.minV), Max: F64(o.maxV),
	})
}

// UnmarshalJSON restores an accumulator to the exact encoded state.
func (o *Online) UnmarshalJSON(b []byte) error {
	var w onlineWire
	if err := json.Unmarshal(b, &w); err != nil {
		return fmt.Errorf("stats: Online: %w", err)
	}
	if w.N < 0 {
		return errors.New("stats: Online: negative sample count")
	}
	o.n = w.N
	o.mean = float64(w.Mean)
	o.m2 = float64(w.M2)
	o.minV = float64(w.Min)
	o.maxV = float64(w.Max)
	return nil
}

// sketchWire is QuantileSketch's stored form. Bucket maps marshal with
// sorted keys (encoding/json orders map keys), so the encoding of a given
// sketch state is deterministic. logGamma is derived, not stored: it is
// recomputed from the exact gamma on decode.
type sketchWire struct {
	Gamma  F64           `json:"gamma"`
	Pos    map[int]int64 `json:"pos,omitempty"`
	Neg    map[int]int64 `json:"neg,omitempty"`
	Zero   int64         `json:"zero,omitempty"`
	PosInf int64         `json:"pos_inf,omitempty"`
	NegInf int64         `json:"neg_inf,omitempty"`
	Count  int64         `json:"count"`
}

// MarshalJSON encodes the sketch's exact bucket state.
func (q QuantileSketch) MarshalJSON() ([]byte, error) {
	w := sketchWire{Gamma: F64(q.gamma), Zero: q.zero, PosInf: q.posInf, NegInf: q.negInf, Count: q.count}
	if len(q.pos) > 0 {
		w.Pos = q.pos
	}
	if len(q.neg) > 0 {
		w.Neg = q.neg
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores the sketch to the exact encoded state. A decoded
// sketch merges with (and quantiles identically to) the sketch it was
// encoded from: bucket counts are integers and gamma round-trips exactly.
func (q *QuantileSketch) UnmarshalJSON(b []byte) error {
	var w sketchWire
	if err := json.Unmarshal(b, &w); err != nil {
		return fmt.Errorf("stats: QuantileSketch: %w", err)
	}
	gamma := float64(w.Gamma)
	if !(gamma > 1) || math.IsInf(gamma, 1) {
		return fmt.Errorf("stats: QuantileSketch: invalid gamma %g", gamma)
	}
	if w.Count < 0 || w.Zero < 0 || w.PosInf < 0 || w.NegInf < 0 {
		return errors.New("stats: QuantileSketch: negative count")
	}
	// Add and Merge only ever raise a bucket above zero, and count is always
	// zero plus the infinities plus every bucket: refuse any other state, so
	// Quantile's rank walk always ends inside the buckets.
	held := w.Zero
	for _, c := range []int64{w.PosInf, w.NegInf} {
		if held > math.MaxInt64-c {
			return errors.New("stats: QuantileSketch: bucket counts overflow int64")
		}
		held += c
	}
	for _, buckets := range []map[int]int64{w.Neg, w.Pos} {
		for i, c := range buckets {
			if c <= 0 {
				return fmt.Errorf("stats: QuantileSketch: bucket %d has non-positive count %d", i, c)
			}
			if held > math.MaxInt64-c {
				return errors.New("stats: QuantileSketch: bucket counts overflow int64")
			}
			held += c
		}
	}
	if held != w.Count {
		return fmt.Errorf("stats: QuantileSketch: count %d differs from the %d samples its buckets hold", w.Count, held)
	}
	q.gamma = gamma
	q.logGamma = math.Log(gamma)
	q.pos = w.Pos
	q.neg = w.Neg
	if q.pos == nil {
		q.pos = make(map[int]int64)
	}
	if q.neg == nil {
		q.neg = make(map[int]int64)
	}
	q.zero = w.Zero
	q.posInf = w.PosInf
	q.negInf = w.NegInf
	q.count = w.Count
	return nil
}
