package ranging

import (
	"math"
	"math/rand"
	"testing"

	"resilientloc/internal/acoustics"
	"resilientloc/internal/deploy"
	"resilientloc/internal/geom"
	"resilientloc/internal/stats"
)

// twoNodeDeployment returns two nodes d meters apart.
func twoNodeDeployment(d float64) *deploy.Deployment {
	return &deploy.Deployment{
		Name:      "pair",
		Positions: []geom.Point{geom.Pt(0, 0), geom.Pt(d, 0)},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(acoustics.Grass()).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := BaselineConfig(acoustics.Urban()).Validate(); err != nil {
		t.Errorf("baseline config invalid: %v", err)
	}
	bad := DefaultConfig(acoustics.Grass())
	bad.SampleRate = 0
	if err := bad.Validate(); err == nil {
		t.Error("want error for zero sample rate")
	}
	bad = DefaultConfig(acoustics.Grass())
	bad.DetectK = 40 // > DetectM
	if err := bad.Validate(); err == nil {
		t.Error("want error for k > m")
	}
	bad = DefaultConfig(acoustics.Grass())
	bad.Pattern.Chirps = 0
	if err := bad.Validate(); err == nil {
		t.Error("want error for invalid pattern")
	}
	bad = BaselineConfig(acoustics.Urban())
	bad.BaselineChirpLen = 0
	if err := bad.Validate(); err == nil {
		t.Error("want error for zero baseline chirp")
	}
}

func TestBufferLen(t *testing.T) {
	cfg := DefaultConfig(acoustics.Grass())
	// 25 m at 340 m/s and 16 kHz ≈ 1176 samples + margin.
	n := cfg.BufferLen()
	if n < 1176 || n > 1400 {
		t.Errorf("BufferLen = %d, want ≈1240", n)
	}
}

func TestNewServiceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dep := twoNodeDeployment(10)
	if _, err := NewService(DefaultConfig(acoustics.Grass()), dep, nil); err == nil {
		t.Error("want error for nil rng")
	}
	bad := DefaultConfig(acoustics.Grass())
	bad.SampleRate = -1
	if _, err := NewService(bad, dep, rng); err == nil {
		t.Error("want error for invalid config")
	}
	if _, err := NewService(DefaultConfig(acoustics.Grass()), &deploy.Deployment{}, rng); err == nil {
		t.Error("want error for empty deployment")
	}
}

// TestRefinedAccuracyShortRange checks the headline accuracy claim: at
// close range on grass, the refined service's median |error| is on the
// order of tens of centimeters (paper: ≈33 cm median at 1% of max range).
func TestRefinedAccuracyShortRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dep := twoNodeDeployment(8)
	cfg := DefaultConfig(acoustics.Grass())
	cfg.Units.FaultProb = 0 // isolate the accuracy path from fault outliers
	svc, err := NewService(cfg, dep, rng)
	if err != nil {
		t.Fatal(err)
	}
	var errsAbs []float64
	attempts, successes := 0, 0
	for i := 0; i < 200; i++ {
		attempts++
		d, ok := svc.MeasurePair(0, 1)
		if !ok {
			continue
		}
		successes++
		errsAbs = append(errsAbs, math.Abs(d-8))
	}
	if successes < attempts*8/10 {
		t.Fatalf("detection rate %d/%d too low at 8 m on grass", successes, attempts)
	}
	med, err := stats.Median(errsAbs)
	if err != nil {
		t.Fatal(err)
	}
	if med > 0.5 {
		t.Errorf("median |error| = %.3f m at 8 m, want ≤ 0.5 m", med)
	}
}

// TestRefinedRangeLimits verifies the §3.6.2 detection-range structure on
// grass: high success ≤10 m, virtually none at 25 m.
func TestRefinedRangeLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultConfig(acoustics.Grass())
	cfg.Units.FaultProb = 0

	rate := func(d float64) float64 {
		dep := twoNodeDeployment(d)
		svc, err := NewService(cfg, dep, rng)
		if err != nil {
			t.Fatal(err)
		}
		ok := 0
		const n = 60
		for i := 0; i < n; i++ {
			if _, hit := svc.MeasurePair(0, 1); hit {
				ok++
			}
		}
		return float64(ok) / n
	}

	if r := rate(9); r < 0.8 {
		t.Errorf("grass @9m: success %.2f, want ≥0.8", r)
	}
	if r := rate(25); r > 0.15 {
		t.Errorf("grass @25m: success %.2f, want ≈0 beyond max range", r)
	}
}

// TestPavementOutranges grass at equal distances (§3.6.2).
func TestPavementOutrangesGrass(t *testing.T) {
	cfg := func(env acoustics.Environment) Config {
		c := DefaultConfig(env)
		c.MaxBufferRange = 40
		c.Units.FaultProb = 0
		return c
	}
	rate := func(c Config, d float64, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		svc, err := NewService(c, twoNodeDeployment(d), rng)
		if err != nil {
			t.Fatal(err)
		}
		ok := 0
		const n = 50
		for i := 0; i < n; i++ {
			if _, hit := svc.MeasurePair(0, 1); hit {
				ok++
			}
		}
		return float64(ok) / n
	}
	pave := rate(cfg(acoustics.Pavement()), 22, 11)
	grass := rate(cfg(acoustics.Grass()), 22, 11)
	if pave <= grass {
		t.Errorf("pavement success %.2f not better than grass %.2f at 22 m", pave, grass)
	}
	if pave < 0.7 {
		t.Errorf("pavement @22m: success %.2f, want ≥0.7 (reliable to 25m)", pave)
	}
}

// TestBaselineUnderestimates reproduces the Figure 2 signature: in the
// echo-rich urban environment the baseline service produces a meaningful
// population of >1 m errors, most of them underestimates.
func TestBaselineUnderestimates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := BaselineConfig(acoustics.Urban())
	dep := twoNodeDeployment(15)
	svc, err := NewService(cfg, dep, rng)
	if err != nil {
		t.Fatal(err)
	}
	var under, over, large int
	n := 400
	for i := 0; i < n; i++ {
		d, ok := svc.MeasurePair(0, 1)
		if !ok {
			continue
		}
		e := d - 15
		if e < -1 {
			under++
			large++
		} else if e > 1 {
			over++
			large++
		}
	}
	if large < n/20 {
		t.Errorf("baseline produced only %d large errors out of %d, want a meaningful population", large, n)
	}
	if under <= over {
		t.Errorf("large errors: %d under vs %d over — Figure 2 shows mostly underestimates", under, over)
	}
}

// TestRefinedBeatsBaseline: the refined service must produce far fewer
// large-magnitude errors than the baseline under identical conditions.
func TestRefinedBeatsBaseline(t *testing.T) {
	largeFrac := func(cfg Config, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		svc, err := NewService(cfg, twoNodeDeployment(12), rng)
		if err != nil {
			t.Fatal(err)
		}
		large, total := 0, 0
		for i := 0; i < 300; i++ {
			d, ok := svc.MeasurePair(0, 1)
			if !ok {
				continue
			}
			total++
			if math.Abs(d-12) > 1 {
				large++
			}
		}
		if total == 0 {
			t.Fatal("no successful measurements")
		}
		return float64(large) / float64(total)
	}
	base := largeFrac(BaselineConfig(acoustics.Urban()), 13)
	refined := largeFrac(func() Config {
		c := DefaultConfig(acoustics.Urban())
		c.MaxBufferRange = 35
		return c
	}(), 13)
	if refined >= base {
		t.Errorf("refined large-error rate %.3f not better than baseline %.3f", refined, base)
	}
}

// TestErrorGrowsWithDistance reproduces the Figure 8 trend: large-magnitude
// errors are more common at longer distances.
func TestErrorGrowsWithDistance(t *testing.T) {
	cfg := DefaultConfig(acoustics.Grass())
	cfg.Units.FaultProb = 0
	frac := func(d float64) float64 {
		rng := rand.New(rand.NewSource(17))
		svc, err := NewService(cfg, twoNodeDeployment(d), rng)
		if err != nil {
			t.Fatal(err)
		}
		large, total := 0, 0
		for i := 0; i < 200; i++ {
			m, ok := svc.MeasurePair(0, 1)
			if !ok {
				continue
			}
			total++
			if math.Abs(m-d) > 0.5 {
				large++
			}
		}
		if total == 0 {
			return 1
		}
		return float64(large) / float64(total)
	}
	near, far := frac(5), frac(16)
	if far < near {
		t.Errorf("large-error fraction near=%.3f far=%.3f — should grow with distance", near, far)
	}
}

func TestMeasurePairInvalidIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	svc, err := NewService(DefaultConfig(acoustics.Grass()), twoNodeDeployment(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][2]int{{0, 0}, {-1, 1}, {0, 5}} {
		if _, ok := svc.MeasurePair(tc[0], tc[1]); ok {
			t.Errorf("MeasurePair(%d,%d) succeeded, want failure", tc[0], tc[1])
		}
	}
}

func TestCampaignProducesSparseGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dep, err := deploy.OffsetGrid(4, 4, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(acoustics.Grass())
	svc, err := NewService(cfg, dep, rng)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := svc.Campaign(2, 25)
	if err != nil {
		t.Fatal(err)
	}
	if raw.TotalReadings() == 0 {
		t.Fatal("campaign produced no readings")
	}
	// Nearest neighbors (9–10 m apart) should nearly all be measured; the
	// far corners (>25 m) never attempted.
	if len(raw.Readings(0, 1)) == 0 {
		t.Error("adjacent pair unmeasured")
	}
	if len(raw.Readings(0, 15)) != 0 {
		t.Error("beyond-range pair has readings")
	}
	if _, err := svc.Campaign(0, 25); err == nil {
		t.Error("want error for zero rounds")
	}
}

func TestCampaignSetPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dep, err := deploy.OffsetGrid(3, 3, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(acoustics.Grass())
	cfg.Units.FaultProb = 0
	svc, err := NewService(cfg, dep, rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := svc.CampaignSet(3, 25)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 {
		t.Fatal("empty measurement set")
	}
	// Filtered estimates for adjacent pairs should be within ~1 m of truth.
	errs, err := set.Errors(dep)
	if err != nil {
		t.Fatal(err)
	}
	med, err := stats.MedianAbs(errs)
	if err != nil {
		t.Fatal(err)
	}
	if med > 0.6 {
		t.Errorf("median |error| after filtering = %.3f m, want ≤ 0.6", med)
	}
}

func TestFirstRun(t *testing.T) {
	tests := []struct {
		name string
		rec  []bool
		r    int
		want int
	}{
		{"simple", []bool{false, true, true, true, false}, 3, 1},
		{"none", []bool{true, false, true, false}, 2, -1},
		{"at start", []bool{true, true}, 2, 0},
		{"empty", nil, 1, -1},
	}
	for _, tc := range tests {
		if got := firstRun(tc.rec, tc.r); got != tc.want {
			t.Errorf("%s: firstRun = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestServiceDeterminism(t *testing.T) {
	run := func() []float64 {
		rng := rand.New(rand.NewSource(42))
		svc, err := NewService(DefaultConfig(acoustics.Grass()), twoNodeDeployment(10), rng)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i := 0; i < 20; i++ {
			d, ok := svc.MeasurePair(0, 1)
			if ok {
				out = append(out, d)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different success counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("measurement %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
