package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"resilientloc/internal/deploy"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/scratch"
)

// This file freezes the LSS descent kernel as it stood before the solver
// began reusing each objective evaluation's pair distances in the next
// gradient and skipping Hypot for soft pairs that are certainly beyond dmin.
// The production kernel must reproduce it bit for bit: same positions, same
// objective values, same iteration counts and the same History.

// refSolveLSS is SolveLSSIn's restart loop, anchors registered in ascending
// order, running the frozen kernel. Inputs are assumed valid.
func refSolveLSS(ws *scratch.Arena, set *measure.Set, cfg LSSConfig, rng *rand.Rand) *LSSResult {
	n := set.N()
	prob := newRefLSSProblem(ws, set, cfg)

	spread := cfg.InitSpread
	if spread <= 0 {
		spread = prob.distanceScale() * math.Sqrt(float64(n))
	}
	perturb := cfg.PerturbStd
	if perturb <= 0 {
		perturb = 0.3 * prob.distanceScale()
	}
	pinAnchors := func(dst []geom.Point) {
		for a, p := range cfg.Anchors {
			dst[a] = p
		}
	}
	randomConfig := func(dst []geom.Point) {
		for i := range dst {
			dst[i] = geom.Pt(rng.Float64()*spread, rng.Float64()*spread)
		}
		pinAnchors(dst)
	}

	cur := ws.Points(n)
	randomConfig(cur)

	best := ws.Points(n)
	copy(best, cur)
	bestErr := prob.objective(best)
	var bestHistory []float64
	totalIters := 0

	if cfg.SeedMDSMap && set.Connected() {
		if seed, err := SolveMDSMapIn(ws, set); err == nil {
			if len(cfg.Anchors) >= 2 {
				// Register the relative MDS map onto the anchor frame so
				// pinning doesn't tear the configuration apart.
				var src, dst []geom.Point
				for _, a := range slices.Sorted(maps.Keys(cfg.Anchors)) {
					src = append(src, seed[a])
					dst = append(dst, cfg.Anchors[a])
				}
				if tr, _, err := geom.FitRigid(src, dst); err == nil {
					seed = tr.ApplyAll(seed)
				}
			}
			pinAnchors(seed)
			final, history, iters := prob.descend(ws, seed, cfg)
			totalIters += iters
			if e := prob.objective(final); e < bestErr {
				bestErr = e
				copy(best, final)
				bestHistory = history
			}
		}
	}

	for round := 0; round <= cfg.Restarts; round++ {
		switch {
		case round == 0:
			// descend from the initial random configuration
		case round%2 == 1:
			// Perturb the best configuration so far (the paper's rule).
			for i := range cur {
				cur[i] = geom.Pt(
					best[i].X+rng.NormFloat64()*perturb,
					best[i].Y+rng.NormFloat64()*perturb,
				)
			}
			pinAnchors(cur)
		default:
			// Fresh random configuration: escapes reflection folds.
			randomConfig(cur)
		}
		final, history, iters := prob.descend(ws, cur, cfg)
		totalIters += iters
		if e := prob.objective(final); e < bestErr {
			bestErr = e
			copy(best, final)
			bestHistory = history
		}
	}

	return &LSSResult{
		Positions:          best,
		Error:              bestErr,
		UnconstrainedError: prob.weightedStress(best),
		Iterations:         totalIters,
		History:            bestHistory,
	}
}

// refLSSProblem is the frozen kernel: it recomputes every pair distance in
// every objective and every gradient.
type refLSSProblem struct {
	n     int
	pairs []measure.Measurement
	// measured[i*n+j] marks pairs with a distance measurement; the soft
	// constraint applies only to unmeasured pairs.
	measured []bool
	// soft lists the unmeasured (i, j) pairs flat — soft[k], soft[k+1] —
	// in the same i-major, j-ascending order the constraint loops used to
	// scan measured in, so objective/gradient walk a precomputed list
	// instead of re-deriving it O(n²) per evaluation.
	soft []int
	// fixed marks anchored nodes whose coordinates never move.
	fixed []bool
	dmin  float64
	wd    float64
}

func newRefLSSProblem(ws *scratch.Arena, set *measure.Set, cfg LSSConfig) *refLSSProblem {
	n := set.N()
	p := &refLSSProblem{
		n:        n,
		pairs:    set.All(),
		measured: ws.Bools(n * n),
		fixed:    ws.Bools(n),
		dmin:     cfg.DMin,
		wd:       cfg.WD,
	}
	for _, m := range p.pairs {
		p.measured[m.Pair.Lo*n+m.Pair.Hi] = true
		p.measured[m.Pair.Hi*n+m.Pair.Lo] = true
	}
	for a := range cfg.Anchors {
		if a >= 0 && a < n {
			p.fixed[a] = true
		}
	}
	if p.dmin > 0 {
		p.soft = ws.IntCap(n * (n - 1))
		for i := 0; i < n; i++ {
			mrow := p.measured[i*n : i*n+n]
			for j := i + 1; j < n; j++ {
				if !mrow[j] {
					p.soft = append(p.soft, i, j)
				}
			}
		}
	}
	return p
}

// distanceScale returns the mean measured distance, used to size the random
// initial configuration.
func (p *refLSSProblem) distanceScale() float64 {
	if len(p.pairs) == 0 {
		return 1
	}
	var s float64
	for _, m := range p.pairs {
		s += m.Distance
	}
	return s / float64(len(p.pairs))
}

// weightedStress computes Ew = Σ wij (‖pi−pj‖ − dij)².
func (p *refLSSProblem) weightedStress(pos []geom.Point) float64 {
	var e float64
	for _, m := range p.pairs {
		d := pos[m.Pair.Lo].Dist(pos[m.Pair.Hi])
		r := d - m.Distance
		e += m.Weight * r * r
	}
	return e
}

// objective computes the full E including soft-constraint terms.
func (p *refLSSProblem) objective(pos []geom.Point) float64 {
	e := p.weightedStress(pos)
	if p.dmin <= 0 {
		return e
	}
	for k := 0; k < len(p.soft); k += 2 {
		d := pos[p.soft[k]].Dist(pos[p.soft[k+1]])
		if d < p.dmin {
			r := d - p.dmin
			e += p.wd * r * r
		}
	}
	return e
}

// gradient writes ∇E into grad (len 2n: x components then y components).
func (p *refLSSProblem) gradient(pos []geom.Point, grad []float64) {
	for i := range grad {
		grad[i] = 0
	}
	n := p.n
	for _, m := range p.pairs {
		i, j := m.Pair.Lo, m.Pair.Hi
		dx := pos[i].X - pos[j].X
		dy := pos[i].Y - pos[j].Y
		d := math.Hypot(dx, dy)
		if d < minSeparation {
			continue // coincident points: zero gradient direction, skip
		}
		g := 2 * m.Weight * (d - m.Distance) / d
		grad[i] += g * dx
		grad[j] -= g * dx
		grad[n+i] += g * dy
		grad[n+j] -= g * dy
	}
	if p.dmin <= 0 {
		p.zeroFixed(grad)
		return
	}
	for k := 0; k < len(p.soft); k += 2 {
		i, j := p.soft[k], p.soft[k+1]
		dx := pos[i].X - pos[j].X
		dy := pos[i].Y - pos[j].Y
		d := math.Hypot(dx, dy)
		if d >= p.dmin || d < minSeparation {
			continue
		}
		g := 2 * p.wd * (d - p.dmin) / d
		grad[i] += g * dx
		grad[j] -= g * dx
		grad[n+i] += g * dy
		grad[n+j] -= g * dy
	}
	p.zeroFixed(grad)
}

// zeroFixed clears gradient components of anchored nodes so descent never
// moves them.
func (p *refLSSProblem) zeroFixed(grad []float64) {
	for i, fixed := range p.fixed {
		if fixed {
			grad[i] = 0
			grad[p.n+i] = 0
		}
	}
}

// descend runs one gradient-descent trajectory from start and returns the
// final configuration, the per-iteration objective history, and the number
// of iterations performed. In adaptive mode the step halves when it would
// increase the objective (retrying the step) and grows on success; in fixed
// mode the paper's constant-α rule applies verbatim.
func (p *refLSSProblem) descend(ws *scratch.Arena, start []geom.Point, cfg LSSConfig) ([]geom.Point, []float64, int) {
	if cfg.Mode == StepFixed {
		return p.descendFixed(ws, start, cfg)
	}
	n := p.n
	cur := ws.Points(n)
	copy(cur, start)
	next := ws.Points(n)
	grad := ws.Float64s(2 * n)
	// +1 so the final append(history, e) below stays in place.
	history := ws.Float64Cap(cfg.MaxIters + 1)

	e := p.objective(cur)
	step := cfg.Step
	plateau := 0
	iters := 0
	for it := 0; it < cfg.MaxIters; it++ {
		iters++
		history = append(history, e)
		p.gradient(cur, grad)

		improved := false
		for attempt := 0; attempt < 40; attempt++ {
			for i := 0; i < n; i++ {
				next[i] = geom.Pt(cur[i].X-step*grad[i], cur[i].Y-step*grad[n+i])
			}
			ne := p.objective(next)
			if ne < e {
				improved = true
				relDrop := (e - ne) / (math.Abs(e) + 1e-30)
				cur, next = next, cur
				e = ne
				step *= 1.5
				if relDrop < cfg.Tol {
					plateau++
				} else {
					plateau = 0
				}
				break
			}
			step /= 2
			if step < 1e-16 {
				break
			}
		}
		if !improved || plateau >= 25 {
			break // converged or stuck on a plateau at every step size
		}
	}
	return cur, append(history, e), iters
}

// descendFixed is the paper's Eq. (1) verbatim: constant-step gradient
// descent. The only concession to float safety is halving the step when the
// objective stops being finite (a divergence the paper's hand-tuned α
// avoided by construction).
func (p *refLSSProblem) descendFixed(ws *scratch.Arena, start []geom.Point, cfg LSSConfig) ([]geom.Point, []float64, int) {
	n := p.n
	cur := ws.Points(n)
	copy(cur, start)
	grad := ws.Float64s(2 * n)
	// +1 so the final append(history, e) below stays in place.
	history := ws.Float64Cap(cfg.MaxIters + 1)

	step := cfg.Step
	e := p.objective(cur)
	iters := 0
	for it := 0; it < cfg.MaxIters; it++ {
		iters++
		history = append(history, e)
		p.gradient(cur, grad)
		for i := 0; i < n; i++ {
			cur[i] = geom.Pt(cur[i].X-step*grad[i], cur[i].Y-step*grad[n+i])
		}
		e = p.objective(cur)
		if math.IsNaN(e) || math.IsInf(e, 0) {
			// Diverged: rewind the step and continue more cautiously.
			for i := 0; i < n; i++ {
				cur[i] = geom.Pt(cur[i].X+step*grad[i], cur[i].Y+step*grad[n+i])
			}
			step /= 2
			e = p.objective(cur)
			if step < 1e-15 {
				break
			}
		}
	}
	return cur, append(history, e), iters
}

// refEval is lssProblem's objective evaluation as it stood before it
// computed measured separations in blocks and stopped at a bound: one pass
// over the pairs, each separation recorded in ds as it is summed.
func refEval(p *lssProblem, pos []geom.Point, ds []float64) float64 {
	var e float64
	for k, d0 := range p.dist {
		d := pos[p.lo[k]].Dist(pos[p.hi[k]])
		ds[k] = d
		r := d - d0
		e += p.w[k] * r * r
	}
	for k := len(p.dist); k < len(p.lo); k++ {
		dx := pos[p.lo[k]].X - pos[p.hi[k]].X
		dy := pos[p.lo[k]].Y - pos[p.hi[k]].Y
		var d float64
		if dx*dx+dy*dy > p.farSq {
			d = math.Inf(1)
		} else {
			d = math.Hypot(dx, dy)
		}
		ds[k] = d
		if d < p.dmin {
			r := d - p.dmin
			e += p.wd * r * r
		}
	}
	return e
}

// separationsDiff describes the first separation eval recorded in got that
// disagrees with refEval's want, or returns "". Measured pairs and soft pairs
// on p's near list must match bit for bit. eval no longer records a soft pair
// off the list, so there want must put the pair beyond dmin: +Inf or at
// least dmin.
func separationsDiff(p *lssProblem, got, want []float64) string {
	listed := make([]bool, len(want))
	for k := range p.dist {
		listed[k] = true
	}
	for _, k := range p.near {
		listed[k] = true
	}
	for k, w := range want {
		switch {
		case listed[k] && math.Float64bits(got[k]) != math.Float64bits(w):
			return fmt.Sprintf("ds[%d] = %v, want %v", k, got[k], w)
		case !listed[k] && !(w >= p.dmin):
			return fmt.Sprintf("soft pair %d is off the near list at separation %v, not beyond dmin %v", k, w, p.dmin)
		}
	}
	return ""
}

// TestLSSEvalBoundIdentical holds eval to refEval. Unbounded, it must return
// the same value, bit for bit, and separations that separationsDiff accepts:
// the same bits wherever eval records one, and beyond dmin for every soft
// pair off its near list. Under a
// finite bound it must return the full value whenever that is below the
// bound, and otherwise something not below it, so a descent accepts and
// rejects exactly the steps it did before. Inputs are random and true town
// configurations at three coordinate scales (finite, subnormal and
// overflowing squares), coincident points, and NaN and ±Inf coordinates,
// with the soft constraint on and off.
func TestLSSEvalBoundIdentical(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dep := deploy.Town(rng)
		set, err := measure.Generate(dep, 22, measure.GaussianNoise, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := dep.N()
		var inputs [][]geom.Point
		inputs = append(inputs, dep.Positions)
		for _, scale := range []float64{1, 1e-300, 1e300} {
			for range 3 {
				pos := make([]geom.Point, n)
				for i := range pos {
					pos[i] = geom.Pt(rng.Float64()*100*scale, rng.Float64()*100*scale)
				}
				inputs = append(inputs, pos)
			}
		}
		coincident := slices.Clone(dep.Positions)
		for i := 0; i+1 < n; i += 3 {
			coincident[i+1] = coincident[i]
		}
		inputs = append(inputs, coincident, make([]geom.Point, n))
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			pos := slices.Clone(dep.Positions)
			pos[rng.Intn(n)].X = bad
			inputs = append(inputs, pos)
		}
		for _, dmin := range []float64{9, 0} {
			prob := newLSSProblem(nil, set, DefaultLSSConfig(dmin))
			want := make([]float64, len(prob.lo))
			got := make([]float64, len(prob.lo))
			// Separations are never negative, so -1 marks one eval left
			// unwritten.
			unwritten := func() {
				for k := range got {
					got[k] = -1
				}
			}
			for in, pos := range inputs {
				full := refEval(prob, pos, want)
				unwritten()
				if e := prob.eval(pos, got, math.Inf(1)); !same(e, full) {
					t.Fatalf("seed %d dmin %v input %d: unbounded eval %v, want %v", seed, dmin, in, e, full)
				}
				if msg := separationsDiff(prob, got, want); msg != "" {
					t.Fatalf("seed %d dmin %v input %d: %s", seed, dmin, in, msg)
				}
				bounds := []float64{0, 1, 1e300, prob.weightedStress(pos, got, math.Inf(1))}
				if !math.IsNaN(full) && !math.IsInf(full, 0) {
					bounds = append(bounds, full, math.Nextafter(full, math.Inf(1)), math.Nextafter(full, 0),
						0.1*full, 0.5*full, 0.9*full, 0.999*full, 2*full)
				}
				for _, bound := range bounds {
					unwritten()
					e := prob.eval(pos, got, bound)
					switch {
					case full < bound && !same(e, full):
						t.Fatalf("seed %d dmin %v input %d bound %v: eval %v, want the full %v", seed, dmin, in, bound, e, full)
					case full < bound && separationsDiff(prob, got, want) != "":
						t.Fatalf("seed %d dmin %v input %d bound %v: %s", seed, dmin, in, bound, separationsDiff(prob, got, want))
					case !(full < bound) && e < bound:
						t.Fatalf("seed %d dmin %v input %d bound %v: eval %v is below the bound, full %v is not", seed, dmin, in, bound, e, full)
					}
				}
			}
		}
	}
}

// TestLSSKernelBitIdentical solves town inputs with SolveLSSIn and with the
// frozen kernel and requires every LSSResult field to match bit for bit,
// over the default config, the unconstrained ablation, fixed stepping,
// anchors, and random-only seeding. The restart budget is cut to keep the
// test quick.
func TestLSSKernelBitIdentical(t *testing.T) {
	configs := []struct {
		name string
		cfg  func(dep *deploy.Deployment) LSSConfig
	}{
		{"default", func(*deploy.Deployment) LSSConfig { return DefaultLSSConfig(9) }},
		{"dmin0", func(*deploy.Deployment) LSSConfig { return DefaultLSSConfig(0) }},
		{"fixed", func(*deploy.Deployment) LSSConfig {
			c := DefaultLSSConfig(9)
			c.Mode = StepFixed
			return c
		}},
		{"anchored", func(dep *deploy.Deployment) LSSConfig {
			c := DefaultLSSConfig(9)
			c.Anchors = map[int]geom.Point{0: dep.Positions[0], 7: dep.Positions[7], 40: dep.Positions[40]}
			return c
		}},
		{"random-seeding", func(*deploy.Deployment) LSSConfig {
			c := DefaultLSSConfig(9)
			c.SeedMDSMap = false
			return c
		}},
	}
	seeds := []int64{1, 2, 3, 5, 7, 11}
	if testing.Short() {
		seeds = seeds[:2]
	}
	ws := scratch.New()
	for _, tc := range configs {
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed))
			dep := deploy.Town(rng)
			set, err := measure.Generate(dep, 22, measure.GaussianNoise, rng)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg(dep)
			// Rounds 1 and 2 cover both restart kinds; more rounds only
			// repeat them.
			cfg.Restarts = 2
			want := refSolveLSS(nil, set, cfg, rand.New(rand.NewSource(seed+100)))
			got, err := SolveLSSIn(ws, set, cfg, rand.New(rand.NewSource(seed+100)))
			if err != nil {
				t.Fatal(err)
			}
			if msg := lssResultDiff(got, want); msg != "" {
				t.Errorf("%s seed %d: %s", tc.name, seed, msg)
			}
			ws.Release()
		}
	}
}

// lssResultDiff describes the first field in which a and b differ bitwise,
// or returns "".
func lssResultDiff(a, b *LSSResult) string {
	switch {
	case math.Float64bits(a.Error) != math.Float64bits(b.Error):
		return fmt.Sprintf("Error %v != %v", a.Error, b.Error)
	case math.Float64bits(a.UnconstrainedError) != math.Float64bits(b.UnconstrainedError):
		return fmt.Sprintf("UnconstrainedError %v != %v", a.UnconstrainedError, b.UnconstrainedError)
	case a.Iterations != b.Iterations:
		return fmt.Sprintf("Iterations %d != %d", a.Iterations, b.Iterations)
	case len(a.Positions) != len(b.Positions):
		return fmt.Sprintf("%d positions != %d", len(a.Positions), len(b.Positions))
	case len(a.History) != len(b.History):
		return fmt.Sprintf("History length %d != %d", len(a.History), len(b.History))
	}
	for i, p := range a.Positions {
		q := b.Positions[i]
		if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			return fmt.Sprintf("position %d: %v != %v", i, p, q)
		}
	}
	for i, e := range a.History {
		if math.Float64bits(e) != math.Float64bits(b.History[i]) {
			return fmt.Sprintf("History[%d] %v != %v", i, e, b.History[i])
		}
	}
	return ""
}
