package stats

import (
	"errors"
	"fmt"
	"math"
)

// Histogram is a fixed-width binned count of samples over [Lo, Hi). Samples
// outside the range are tallied in Under/Over. The figure reproductions
// turn its bins into the series of the paper's error histograms (Figures 2,
// 4, 6, 7).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
}

// NewHistogram creates a histogram with n equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, errors.New("stats: NewHistogram: need at least one bin")
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: NewHistogram: invalid range [%g, %g)", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}, nil
}

// Add tallies one sample.
func (h *Histogram) Add(x float64) {
	switch {
	case math.IsNaN(x):
		h.Over++ // NaN is treated as an out-of-range artifact
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // guard the x ≈ Hi float edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// AddAll tallies every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}
