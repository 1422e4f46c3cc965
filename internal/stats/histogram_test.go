package stats

import "testing"

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("want error for zero bins")
	}
	if _, err := NewHistogram(2, 1, 10); err == nil {
		t.Error("want error for inverted range")
	}
	if _, err := NewHistogram(1, 1, 10); err == nil {
		t.Error("want error for empty range")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0, 0.5, 1.5, 9.99, -3, 10, 25})
	if h.Counts[0] != 2 {
		t.Errorf("bin 0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 {
		t.Errorf("bin 1 = %d, want 1", h.Counts[1])
	}
	if h.Counts[9] != 1 {
		t.Errorf("bin 9 = %d, want 1", h.Counts[9])
	}
	if h.Under != 1 {
		t.Errorf("Under = %d, want 1", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("Over = %d, want 2 (10 and 25)", h.Over)
	}
	total := h.Under + h.Over
	for _, c := range h.Counts {
		total += c
	}
	if total != 7 {
		t.Errorf("tallied %d samples, want 7", total)
	}
}

func TestHistogramEdgeNearHi(t *testing.T) {
	h, _ := NewHistogram(0, 1, 3)
	h.Add(0.9999999999999999) // rounds into the top bin, not out of range
	if h.Over != 0 && h.Counts[2] != 1 {
		t.Errorf("top-edge sample mishandled: %+v", h)
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h, _ := NewHistogram(-1, 1, 4)
	if got := h.BinWidth(); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("BinWidth = %v, want 0.5", got)
	}
	if got := h.BinCenter(0); !almostEq(got, -0.75, 1e-12) {
		t.Errorf("BinCenter(0) = %v, want -0.75", got)
	}
	if got := h.BinCenter(3); !almostEq(got, 0.75, 1e-12) {
		t.Errorf("BinCenter(3) = %v, want 0.75", got)
	}
}
