package timesync

import (
	"math"
	"math/rand"
	"testing"
)

func TestClockAccessors(t *testing.T) {
	c := NewClock(10e-6, 0.25)
	if c.skew != 10e-6 || c.offset != 0.25 {
		t.Errorf("accessors: skew=%v offset=%v", c.skew, c.offset)
	}
}

func TestRandomClockWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		c := RandomClock(rng, 2.0)
		if math.Abs(c.skew) > MaxSkewPPM*1e-6 {
			t.Fatalf("skew %v out of bounds", c.skew)
		}
		if math.Abs(c.offset) > 2.0 {
			t.Fatalf("offset %v out of bounds", c.offset)
		}
	}
}

func TestSyncModelValidate(t *testing.T) {
	if err := DefaultSyncModel().Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
	if err := (SyncModel{JitterStd: -1}).Validate(); err == nil {
		t.Error("want error for negative jitter")
	}
	if err := (SyncModel{Interval: -1}).Validate(); err == nil {
		t.Error("want error for negative interval")
	}
}

// TestSyncErrorMagnitude validates the paper's claim (§3.1): the maximum
// skew-induced ranging error over the sync interval, converted at the speed
// of sound, is ~0.15 cm for 30 m ranging — time sync is not a significant
// error source.
func TestSyncErrorMagnitude(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := DefaultSyncModel()
	src := NewClock(+50e-6, 0)
	dst := NewClock(-50e-6, 0)
	const speedOfSound = 340.0
	worst := 0.0
	for i := 0; i < 10000; i++ {
		e := math.Abs(m.SyncError(src, dst, rng)) * speedOfSound
		if e > worst {
			worst = e
		}
	}
	// 100 ppm relative skew × 0.1 s × 340 m/s = 3.4 mm, plus µs jitter.
	if worst > 0.01 {
		t.Errorf("worst sync-induced ranging error %.4f m, want < 1 cm", worst)
	}
}

func TestSyncErrorZeroJitterIsDeterministic(t *testing.T) {
	m := SyncModel{JitterStd: 0, Interval: 1}
	src := NewClock(10e-6, 0)
	dst := NewClock(30e-6, 0)
	got := m.SyncError(src, dst, nil) // nil rng must be safe with zero jitter
	want := 20e-6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("drift = %v, want %v", got, want)
	}
}

func TestSyncErrorStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := SyncModel{JitterStd: 5e-6, Interval: 0}
	src, dst := NewClock(0, 0), NewClock(0, 0)
	var sum, sumSq float64
	n := 50000
	for i := 0; i < n; i++ {
		e := m.SyncError(src, dst, rng)
		sum += e
		sumSq += e * e
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 1e-7 {
		t.Errorf("mean = %v, want ≈0", mean)
	}
	if math.Abs(sd-5e-6) > 5e-7 {
		t.Errorf("sd = %v, want ≈5e-6", sd)
	}
}
