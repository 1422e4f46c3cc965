package ranging

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"resilientloc/internal/acoustics"
	"resilientloc/internal/measure"
)

// Failure-injection tests: the ranging pipeline must degrade gracefully —
// not crash, not fabricate precision — under hostile hardware and channel
// conditions.

// TestAllFaultyHardware: with every node's acoustic hardware faulty, the
// service should produce (almost) no measurements rather than garbage.
func TestAllFaultyHardware(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cfg := DefaultConfig(acoustics.Grass())
	cfg.Units.FaultProb = 1
	cfg.AutoCalibrate = false // calibration itself uses nominal hardware
	svc, err := NewService(cfg, twoNodeDeployment(10), rng)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 100; i++ {
		if _, ok := svc.MeasurePair(0, 1); ok {
			hits++
		}
	}
	if hits > 5 {
		t.Errorf("faulty hardware produced %d/100 measurements, want ≈0", hits)
	}
}

// TestExtremeNoiseFloor: with the noise floor at the signal level, the
// refined detector must reject (k-of-m fails or pattern verification
// fails) far more often than it hallucinates a confident wrong distance.
func TestExtremeNoiseFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	env := acoustics.Grass()
	env.PFalse = 0.15 // pathological detector chatter
	cfg := DefaultConfig(env)
	cfg.Units.FaultProb = 0
	svc, err := NewService(cfg, twoNodeDeployment(12), rng)
	if err != nil {
		t.Fatal(err)
	}
	grossErrors, total := 0, 0
	for i := 0; i < 200; i++ {
		d, ok := svc.MeasurePair(0, 1)
		if !ok {
			continue
		}
		total++
		if math.Abs(d-12) > 5 {
			grossErrors++
		}
	}
	if total > 0 && float64(grossErrors)/float64(total) > 0.5 {
		t.Errorf("under extreme noise %d/%d accepted measurements are grossly wrong", grossErrors, total)
	}
}

// TestBlockedDirectPath: with the direct path always blocked, every
// accepted measurement comes from an echo and must overestimate.
func TestBlockedDirectPath(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	env := acoustics.Grass()
	env.DirectBlockedProb = 1
	env.EchoLevelLossDB = 2 // strong echoes so something is detectable
	cfg := DefaultConfig(env)
	cfg.Units.FaultProb = 0
	cfg.AutoCalibrate = false // calibration would be echo-biased too
	svc, err := NewService(cfg, twoNodeDeployment(8), rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		d, ok := svc.MeasurePair(0, 1)
		if !ok {
			continue
		}
		// Echo paths are strictly longer than the direct 8 m.
		if d < 8-0.5 {
			t.Fatalf("echo-only measurement %v shorter than the direct path", d)
		}
	}
}

// TestCampaignDegenerateInputs: non-positive rounds and a NaN or negative
// maxPairDist are rejected before any draw; an unreachable or infinite
// maxPairDist is not an error.
func TestCampaignDegenerateInputs(t *testing.T) {
	newService := func() *Service {
		svc, err := NewService(DefaultConfig(acoustics.Grass()), twoNodeDeployment(10), rand.New(rand.NewSource(73)))
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := newService()
	if _, err := svc.Campaign(0, 20); err == nil {
		t.Error("want error for zero rounds")
	}
	if _, err := svc.Campaign(-3, 20); err == nil {
		t.Error("want error for negative rounds")
	}
	for _, d := range []float64{math.NaN(), -5, math.Inf(-1)} {
		if _, err := svc.Campaign(1, d); !errors.Is(err, measure.ErrMaxRange) {
			t.Errorf("maxPairDist %v: error %v, want measure.ErrMaxRange", d, err)
		}
	}
	// The rejected campaigns drew nothing: the next one matches a fresh
	// service's.
	got, err := svc.Campaign(1, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := newService().Campaign(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalReadings() == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("campaign after rejected inputs: %d readings, want the fresh service's %d", got.TotalReadings(), want.TotalReadings())
	}
	// A campaign with an unreachable max distance yields an empty Raw, not
	// an error.
	raw, err := svc.Campaign(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if raw.TotalReadings() != 0 {
		t.Errorf("campaign below min distance produced %d readings", raw.TotalReadings())
	}
}

// TestCampaignSetSurvivesEmptyCampaign: merging an empty campaign produces
// an empty set, not a failure.
func TestCampaignSetSurvivesEmptyCampaign(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	svc, err := NewService(DefaultConfig(acoustics.Grass()), twoNodeDeployment(10), rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := svc.CampaignSet(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 0 {
		t.Errorf("empty campaign produced %d pairs", set.Len())
	}
}

// TestCalibrationOffsetReasonable: auto-calibration should land within a
// few tens of centimeters (the ramp + device delays it compensates).
func TestCalibrationOffsetReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	svc, err := NewService(DefaultConfig(acoustics.Grass()), twoNodeDeployment(10), rng)
	if err != nil {
		t.Fatal(err)
	}
	off := svc.calibOffset
	if math.Abs(off) > 0.6 {
		t.Errorf("calibration offset %.3f m outside ±0.6 m", off)
	}
	// Disabling auto-calibration yields zero offset.
	cfg := DefaultConfig(acoustics.Grass())
	cfg.AutoCalibrate = false
	svc2, err := NewService(cfg, twoNodeDeployment(10), rng)
	if err != nil {
		t.Fatal(err)
	}
	if svc2.calibOffset != 0 {
		t.Errorf("offset %v with AutoCalibrate off", svc2.calibOffset)
	}
}
