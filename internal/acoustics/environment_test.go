package acoustics

import (
	"math"
	"math/rand"
	"testing"
)

func TestEnvironmentPresetsValid(t *testing.T) {
	for _, e := range []Environment{Grass(), Pavement(), Urban(), Wooded()} {
		if err := e.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}

func TestEnvironmentValidateRejectsBad(t *testing.T) {
	base := Grass()
	mutations := []func(*Environment){
		func(e *Environment) { e.RefDistance = 0 },
		func(e *Environment) { e.DetectSlope = 0 },
		func(e *Environment) { e.PFalse = 1.5 },
		func(e *Environment) { e.EchoProb = -0.1 },
		func(e *Environment) { e.DirectBlockedProb = 2 },
		func(e *Environment) { e.ExcessAttenuation = -1 },
		func(e *Environment) { e.EchoExtraPathMean = -1 },
	}
	for i, mut := range mutations {
		e := base
		mut(&e)
		if err := e.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

func TestReceivedLevelMonotonicallyDecreasing(t *testing.T) {
	for _, e := range []Environment{Grass(), Pavement(), Urban(), Wooded()} {
		prev := math.Inf(1)
		for d := 0.1; d <= 60; d += 0.5 {
			l := e.ReceivedLevel(d)
			if l > prev {
				t.Fatalf("%s: level increased at %.1f m", e.Name, d)
			}
			prev = l
		}
	}
}

func TestReceivedLevelClampsBelowRef(t *testing.T) {
	e := Grass()
	if e.ReceivedLevel(0.01) != e.SourceLevel {
		t.Error("level below reference distance should equal source level")
	}
	if e.ReceivedLevel(e.RefDistance) != e.SourceLevel {
		t.Error("level at reference distance should equal source level")
	}
}

func TestPDetectLogistic(t *testing.T) {
	e := Grass()
	mid := e.PDetect(e.DetectMidSNR)
	if math.Abs(mid-0.5) > 1e-9 {
		t.Errorf("PDetect(mid) = %v, want 0.5", mid)
	}
	if hi := e.PDetect(e.DetectMidSNR + 20); hi < 0.99 {
		t.Errorf("PDetect(high SNR) = %v, want ≈1", hi)
	}
	// Floor at PFalse: a tone never reduces detection below noise alone.
	if lo := e.PDetect(-100); lo != e.PFalse {
		t.Errorf("PDetect(-100) = %v, want PFalse=%v", lo, e.PFalse)
	}
}

// TestGrassVsPavementRange verifies the paper's §3.6.2 range separation:
// grass attenuates far more than pavement, so its usable detection range is
// far shorter.
func TestGrassVsPavementRange(t *testing.T) {
	grass, pave := Grass(), Pavement()

	// Reliable detection (per-sample p ≥ 0.5): ~10 m on grass, ~25 m on
	// pavement.
	pd := func(e Environment, d float64) float64 { return e.PDetect(e.SNR(d, 0, 0)) }
	if p := pd(grass, 10); p < 0.5 {
		t.Errorf("grass @10m: p=%v, want ≥0.5", p)
	}
	if p := pd(grass, 25); p > 0.10 {
		t.Errorf("grass @25m: p=%v, want <0.10 (virtually no detection beyond 20m)", p)
	}
	if p := pd(pave, 25); p < 0.5 {
		t.Errorf("pavement @25m: p=%v, want ≥0.5", p)
	}
	if p := pd(pave, 50); p < 0.02 || p > 0.5 {
		t.Errorf("pavement @50m: p=%v, want occasional detection (0.02..0.5)", p)
	}
}

func TestUnitVariationValidate(t *testing.T) {
	if err := DefaultUnitVariation().Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	if err := (UnitVariationModel{SpeakerStdDB: -1}).Validate(); err == nil {
		t.Error("want error for negative std")
	}
	if err := (UnitVariationModel{FaultProb: 2}).Validate(); err == nil {
		t.Error("want error for FaultProb > 1")
	}
}

func TestUnitVariationDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := DefaultUnitVariation()
	var spkSum, spkSq float64
	faults := 0
	n := 20000
	for i := 0; i < n; i++ {
		u := m.Draw(rng)
		spkSum += u.SpeakerDB
		spkSq += u.SpeakerDB * u.SpeakerDB
		if u.Faulty {
			faults++
		}
	}
	mean := spkSum / float64(n)
	sd := math.Sqrt(spkSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Errorf("speaker offset mean = %v, want ≈0", mean)
	}
	if math.Abs(sd-m.SpeakerStdDB) > 0.1 {
		t.Errorf("speaker offset sd = %v, want ≈%v", sd, m.SpeakerStdDB)
	}
	frac := float64(faults) / float64(n)
	if math.Abs(frac-m.FaultProb) > 0.005 {
		t.Errorf("fault fraction = %v, want ≈%v", frac, m.FaultProb)
	}
}

func TestChannelPlanBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ch := Channel{Env: Grass()}
	r := ch.Plan(5, UnitOffsets{}, UnitOffsets{}, rng)
	if r.PDetect < 0.9 {
		t.Errorf("close-range PDetect = %v, want ≈1", r.PDetect)
	}
	if r.PFalse != Grass().PFalse {
		t.Errorf("PFalse = %v, want %v", r.PFalse, Grass().PFalse)
	}
}

func TestChannelPlanFaultyHardware(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ch := Channel{Env: Grass()}
	r := ch.Plan(5, UnitOffsets{Faulty: true}, UnitOffsets{}, rng)
	if r.PDetect > ch.Env.PFalse {
		t.Errorf("faulty pair PDetect = %v, want ≤ PFalse", r.PDetect)
	}
	if r.PFalse <= ch.Env.PFalse {
		t.Errorf("faulty pair PFalse = %v, want elevated", r.PFalse)
	}
}

func TestChannelPlanEchoesInUrban(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ch := Channel{Env: Urban()}
	echoes, blocked := 0, 0
	n := 5000
	for i := 0; i < n; i++ {
		r := ch.Plan(10, UnitOffsets{}, UnitOffsets{}, rng)
		if len(r.Echoes) > 0 {
			echoes++
			if r.Echoes[0].ExtraPath < 1 {
				t.Fatal("echo extra path below 1 m floor")
			}
		}
		if r.DirectBlocked {
			blocked++
			if r.PDetect != 0 {
				t.Fatal("blocked direct path must have zero PDetect")
			}
			if len(r.Echoes) == 0 {
				t.Fatal("blocked reception must carry an echo")
			}
		}
	}
	fracEcho := float64(echoes) / float64(n)
	if fracEcho < 0.3 || fracEcho > 0.55 {
		t.Errorf("urban echo fraction = %v, want ≈0.40", fracEcho)
	}
	fracBlocked := float64(blocked) / float64(n)
	if math.Abs(fracBlocked-0.05) > 0.02 {
		t.Errorf("blocked fraction = %v, want ≈0.05", fracBlocked)
	}
}

// TestEchoWeakerThanDirect checks echoes are attenuated relative to the
// direct path at the same distance.
func TestEchoWeakerThanDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ch := Channel{Env: Urban()}
	for i := 0; i < 2000; i++ {
		r := ch.Plan(8, UnitOffsets{}, UnitOffsets{}, rng)
		if r.DirectBlocked || len(r.Echoes) == 0 {
			continue
		}
		if r.Echoes[0].PDetect > r.PDetect+1e-12 {
			t.Fatalf("echo louder than direct path: %v > %v", r.Echoes[0].PDetect, r.PDetect)
		}
	}
}
