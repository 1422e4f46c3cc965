package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	got, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 2.5, 1e-12) {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestVarianceStdDev(t *testing.T) {
	v, err := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", v)
	}
	sd, _ := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEq(sd, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", sd)
	}
	one, _ := Variance([]float64{42})
	if one != 0 {
		t.Errorf("Variance single = %v, want 0", one)
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"odd", []float64{3, 1, 2}, 2},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"single", []float64{7}, 7},
		{"outlier resistant", []float64{1, 1, 1, 1, 100}, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Median(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEq(got, tc.want, 1e-12) {
				t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
	if _, err := Median(nil); !errors.Is(err, ErrEmpty) {
		t.Error("want ErrEmpty")
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	want := append([]float64(nil), in...)
	if _, err := Median(in); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != want[i] {
			t.Fatalf("input mutated: %v", in)
		}
	}
}

func TestMode(t *testing.T) {
	// Cluster at ~10 with outliers; the mode should sit in the cluster even
	// though the median would drift with more outliers.
	xs := []float64{9.9, 10.0, 10.1, 10.05, 3.0, 25.0}
	got, err := Mode(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 0.2 {
		t.Errorf("Mode = %v, want ≈10", got)
	}
	if _, err := Mode(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Error("want ErrEmpty")
	}
	if _, err := Mode(xs, 0); err == nil {
		t.Error("want error for non-positive bin width")
	}
}

func TestModeBeatsMedianWithManyOutliers(t *testing.T) {
	// Paper §3.5: mode is more outlier-resistant than median but needs more
	// samples. 5 good readings near 12 m, 4 coordinated-looking outliers.
	xs := []float64{11.9, 12.0, 12.1, 12.0, 11.95, 2.0, 2.1, 30.0, 30.2}
	mode, _ := Mode(xs, 0.5)
	if math.Abs(mode-12) > 0.2 {
		t.Errorf("Mode = %v, want ≈12", mode)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2},
	} {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, tc.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if _, err := Percentile(xs, 1.5); err == nil {
		t.Error("want error for p > 1")
	}
	if _, err := Percentile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Error("want ErrEmpty")
	}
	single, _ := Percentile([]float64{9}, 0.7)
	if single != 9 {
		t.Errorf("single-sample percentile = %v, want 9", single)
	}
}

func TestMedianAbs(t *testing.T) {
	got, err := MedianAbs([]float64{-3, 1, -2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 2, 1e-12) {
		t.Errorf("MedianAbs = %v, want 2", got)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{-2, -0.6, 0, 0.6, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != -2 || s.Max != 2 {
		t.Errorf("Summary basics wrong: %+v", s)
	}
	if !almostEq(s.Frac1m, 0.4, 1e-12) {
		t.Errorf("Frac1m = %v, want 0.4", s.Frac1m)
	}
	if !almostEq(s.FracHalf, 0.8, 1e-12) {
		t.Errorf("FracHalf = %v, want 0.8", s.FracHalf)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Error("want ErrEmpty")
	}
}

// Property: the median is always between min and max, and for sorted input
// equals the central order statistic.
func TestMedianProperties(t *testing.T) {
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(3))}
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m, err := Median(xs)
		if err != nil {
			return false
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return m >= sorted[0] && m <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
