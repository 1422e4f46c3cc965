// Package stats provides the descriptive statistics, robust estimators, and
// random variate generators used by the ranging and localization pipelines:
// mean/median/mode filtering of repeated distance measurements (paper §3.5),
// error histograms (Figures 2–8), and the Gaussian + outlier-mixture noise
// models used to regenerate the paper's measurement datasets.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or an error for an empty slice.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the population variance of xs (divides by n). It returns
// an error for an empty slice; a single sample has variance 0.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Median returns the median of xs without modifying the input. For an even
// number of samples it returns the mean of the two central order statistics.
// This is the statistical filter the ranging service applies to repeated
// measurements (paper §3.5, Figure 4).
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2], nil
	}
	// Average without overflow for extreme magnitudes.
	return tmp[n/2-1]/2 + tmp[n/2]/2, nil
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics, without modifying the input.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, errors.New("stats: Percentile: p out of [0,1]")
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	if len(tmp) == 1 {
		return tmp[0], nil
	}
	pos := p * float64(len(tmp)-1)
	i := int(math.Floor(pos))
	if i >= len(tmp)-1 {
		return tmp[len(tmp)-1], nil
	}
	frac := pos - float64(i)
	return tmp[i]*(1-frac) + tmp[i+1]*frac, nil
}

// MedianAbs returns the median of the absolute values of xs. Used for the
// paper's headline "median measurement error ≈ 1% of maximum range" metric.
func MedianAbs(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	abs := make([]float64, len(xs))
	for i, x := range xs {
		abs[i] = math.Abs(x)
	}
	return Median(abs)
}

// Summary bundles the descriptive statistics the experiment harness reports
// for an error sample.
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Min      float64
	Max      float64
	Median   float64
	P90      float64 // 90th percentile
	AbsMed   float64 // median of |x|
	Frac1m   float64 // fraction of samples with |x| > 1 m
	FracHalf float64 // fraction of samples with |x| > 0.5 m
}

// Summarize computes a Summary of xs, or an error for an empty sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	mean, _ := Mean(xs)
	sd, _ := StdDev(xs)
	med, _ := Median(xs)
	p90, _ := Percentile(xs, 0.9)
	absMed, _ := MedianAbs(xs)
	s := Summary{
		N: len(xs), Mean: mean, StdDev: sd,
		Min: xs[0], Max: xs[0], Median: med, P90: p90, AbsMed: absMed,
	}
	var over1, overHalf int
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
		if math.Abs(x) > 1 {
			over1++
		}
		if math.Abs(x) > 0.5 {
			overHalf++
		}
	}
	s.Frac1m = float64(over1) / float64(len(xs))
	s.FracHalf = float64(overHalf) / float64(len(xs))
	return s, nil
}
