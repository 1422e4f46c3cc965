package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"resilientloc/internal/deploy"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
)

// TestLSSNearListIdentical walks town configurations through the moves the
// soft-pair near list has to survive and, at every step, holds eval's value
// and the gradient from its separations to refEval and the frozen kernel's
// gradient, bit for bit, and its separations to separationsDiff. The walk
// moves nodes just under and just over 0.49·skin, drifts them in small steps
// that add up past the skin, squeezes a soft pair from just beyond dmin+skin
// to just inside dmin, jumps to fresh configurations, and plants NaN, ±Inf
// and 1e300-scale coordinates. Between steps it runs bounded evaluations
// elsewhere, as a descent's rejected steps do, so the list is often built at
// positions other than the previous step's. Anchored nodes never move. DMin
// 9, 0 and a subnormal-squared 1e-160 (walked at its own scale) are covered.
func TestLSSNearListIdentical(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	type variant struct {
		dmin     float64
		anchored bool
	}
	variants := []variant{{9, false}, {9, true}, {0, false}, {0, true}, {1e-160, false}}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dep := deploy.Town(rng)
		set, err := measure.Generate(dep, 22, measure.GaussianNoise, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := dep.N()
		for _, v := range variants {
			// scale maps the town's meters onto the walk: dmin 9 and 0 walk
			// the town as it is, a tiny dmin walks a town shrunk to match.
			scale, skin := 1.0, 3.0
			if v.dmin > 0 {
				scale, skin = v.dmin/9, v.dmin/3
			}
			cfg := DefaultLSSConfig(v.dmin)
			if v.anchored {
				cfg.Anchors = map[int]geom.Point{}
				for _, a := range []int{0, 7, 40} {
					cfg.Anchors[a] = geom.Pt(dep.Positions[a].X*scale, dep.Positions[a].Y*scale)
				}
			}
			prob := newLSSProblem(nil, set, cfg)
			ref := newRefLSSProblem(nil, set, cfg)
			ds, wantDs, rejectedDs := make([]float64, len(prob.lo)), make([]float64, len(prob.lo)), make([]float64, len(prob.lo))
			grad, wantGrad := make([]float64, 2*n), make([]float64, 2*n)

			pos := make([]geom.Point, n)
			pin := func() {
				for a, p := range cfg.Anchors {
					pos[a] = p
				}
			}
			fresh := func(spread float64) {
				for i := range pos {
					pos[i] = geom.Pt(rng.Float64()*spread*scale, rng.Float64()*spread*scale)
				}
				pin()
			}
			// shift moves node i by frac·skin in direction angle.
			shift := func(i int, frac, angle float64) {
				pos[i] = geom.Pt(pos[i].X+frac*skin*math.Cos(angle), pos[i].Y+frac*skin*math.Sin(angle))
			}
			moveAll := func(fracs ...float64) {
				for i := range pos {
					if _, ok := cfg.Anchors[i]; !ok {
						shift(i, fracs[rng.Intn(len(fracs))], rng.Float64()*2*math.Pi)
					}
				}
			}
			free := func() int {
				for {
					i := rng.Intn(n)
					if _, ok := cfg.Anchors[i]; !ok {
						return i
					}
				}
			}
			check := func(step int, what string) {
				t.Helper()
				want := refEval(prob, pos, wantDs)
				if e := prob.eval(pos, ds, math.Inf(1)); !same(e, want) {
					t.Fatalf("seed %d %+v step %d (%s): eval %v, want %v", seed, v, step, what, e, want)
				}
				if msg := separationsDiff(prob, ds, wantDs); msg != "" {
					t.Fatalf("seed %d %+v step %d (%s): %s", seed, v, step, what, msg)
				}
				ref.gradient(pos, wantGrad)
				prob.gradient(pos, ds, grad)
				for i := range grad {
					if !same(grad[i], wantGrad[i]) {
						t.Fatalf("seed %d %+v step %d (%s): grad[%d] = %v, want %v", seed, v, step, what, i, grad[i], wantGrad[i])
					}
				}
			}
			// rejectElsewhere evaluates a nearby configuration under a bound,
			// as a descent's rejected step does, leaving pos as it was.
			rejectElsewhere := func() {
				saved := slices.Clone(pos)
				moveAll(0.1, 0.3, 0.6)
				full := refEval(prob, pos, wantDs)
				prob.eval(pos, rejectedDs, []float64{0, 0.5 * full, full}[rng.Intn(3)])
				copy(pos, saved)
			}

			fresh(120)
			check(0, "start")
			for step := 1; step <= 400; step++ {
				if rng.Intn(3) == 0 {
					rejectElsewhere()
				}
				switch kind := rng.Intn(7); kind {
				case 0:
					moveAll(0.4899, 0.48999)
					check(step, "just under 0.49·skin")
				case 1:
					moveAll(0, 0.4901, 0.495, 0.505)
					check(step, "just over 0.49·skin")
				case 2:
					for range 4 {
						moveAll(0.15, 0.25)
						check(step, "drift past the skin")
					}
				case 3:
					// Put a soft pair just beyond dmin+skin, then move both
					// nodes towards each other by frac·skin: 0.48 and 0.495
					// leave it beyond dmin, 0.505 brings it inside.
					if len(prob.lo) == len(prob.dist) {
						continue
					}
					k := len(prob.dist) + rng.Intn(len(prob.lo)-len(prob.dist))
					i, j := prob.lo[k], prob.hi[k]
					if _, ok := cfg.Anchors[i]; ok {
						continue
					}
					if _, ok := cfg.Anchors[j]; ok {
						continue
					}
					a := rng.Float64() * 2 * math.Pi
					r := (v.dmin + skin) * (1 + 1e-9)
					pos[i] = geom.Pt(pos[j].X+r*math.Cos(a), pos[j].Y+r*math.Sin(a))
					check(step, "soft pair placed beyond dmin+skin")
					frac := []float64{0.48, 0.495, 0.505}[rng.Intn(3)]
					shift(i, frac, a+math.Pi)
					shift(j, frac, a)
					check(step, "soft pair squeezed")
				case 4:
					fresh([]float64{30, 120, 400}[rng.Intn(3)])
					check(step, "jump")
				case 5:
					saved := slices.Clone(pos)
					i := free()
					switch rng.Intn(4) {
					case 0:
						pos[i].X = math.NaN()
					case 1:
						pos[i].Y = math.Inf(1)
					case 2:
						pos[i].X = math.Inf(-1)
					default:
						pos[i] = geom.Pt(rng.Float64()*1e300, -rng.Float64()*1e300)
					}
					check(step, "non-finite or huge coordinate")
					copy(pos, saved)
					check(step, "back from a bad coordinate")
				default:
					for i := range pos {
						pos[i] = geom.Pt(pos[i].X*1e298, pos[i].Y*1e298)
					}
					pin()
					check(step, "1e300-scale configuration")
					fresh(120)
					check(step, "back from 1e300 scale")
				}
			}
		}
	}
}
