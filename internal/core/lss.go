// Package core implements the paper's localization algorithms: centralized
// least squares scaling (LSS) with a minimum node-spacing soft constraint
// (Section 4.2 — the paper's primary contribution), least-squares
// multilateration with the intersection consistency check (Section 4.1), a
// classical-MDS baseline (Section 2/4.2.1), and the distributed LSS variant
// (Section 4.3). Settings the paper fixes and no experiment varies — the
// soft-constraint weight wD = 10, the three-anchor minimum, the three shared
// neighbors a frame transform needs — are constants, not configuration.
// Section 4.1.2's intersection-mode estimate is not reproduced: none of the
// paper's figures uses it.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/scratch"
)

// StepMode selects the gradient-descent stepping rule.
type StepMode int

const (
	// StepAdaptive backtracks when a step would increase the objective and
	// grows the step on success — this library's default, far more robust
	// than a hand-tuned constant.
	StepAdaptive StepMode = iota + 1
	// StepFixed is the paper's literal Eq. (1): x ← x − α·∇E with constant
	// α. Convergence then depends heavily on the soft constraint shaping
	// the landscape, which is exactly the Figure 23 comparison; a small
	// stabilizer halves α only if the objective diverges to non-finite
	// values.
	StepFixed
)

// LSSConfig parameterizes the centralized LSS solver.
type LSSConfig struct {
	// DMin is the minimum node spacing for the soft constraint, meters.
	// Zero disables the constraint (the Figure 19/22 ablation).
	DMin float64
	// Mode selects the stepping rule; the zero value means StepAdaptive.
	Mode StepMode
	// Step is the gradient-descent step size α of Eq. (1): the initial step
	// in adaptive mode, the constant step in fixed mode.
	Step float64
	// MaxIters bounds the gradient iterations per descent run.
	MaxIters int
	// Restarts is the number of restart rounds after the initial descent.
	// A random-only solve (SeedMDSMap off, a disconnected set, or an MDS-MAP
	// seed that fails) descends in every round, the paper's count. Once an
	// MDS-MAP-seeded descent has run, Restarts is a cap instead: the solve
	// stops after three consecutive descents that each lower the best
	// objective by less than 1e-9 relative, without drawing the skipped
	// rounds' starts.
	// Odd rounds restart from the best configuration so far perturbed by
	// Gaussian noise of standard deviation 0.3 times the mean measured
	// distance — the paper's local-minimum escape strategy ("the
	// gradient descent starts each round of minimization with seed
	// positions obtained by perturbing the best results so far") — while
	// even rounds use a fresh random configuration, which escapes deep
	// reflection folds that small perturbations cannot.
	Restarts int
	// InitSpread is the half-width of the uniform random initial
	// configuration, meters. Zero derives it from the measured distances.
	InitSpread float64
	// SeedMDSMap, when true, additionally tries an MDS-MAP configuration
	// (shortest-path-completed classical MDS) as one descent start and
	// keeps whichever start reaches the lowest objective. This is this
	// library's robustness improvement over the paper's random-only
	// seeding; disable it for paper-faithful ablations (Figures 19/22/23).
	SeedMDSMap bool
}

// softWeight is the soft-constraint weight wD of paper Section 4.2.2 (wD =
// 10 with wij = 1).
const softWeight = 10

// descentTol ends an adaptive descent run once the relative per-iteration
// improvement stays below it for a sustained stretch (a plateau), rather
// than on the first small step.
const descentTol = 1e-10

// DefaultLSSConfig returns the solver configuration used throughout the
// experiments: dmin from the deployment, under the paper's weights (wij=1,
// wD=10).
// Its MDS-MAP seeding makes Restarts a cap: a seeded solve on a connected
// set stops restarting once restarts stop lowering the objective.
func DefaultLSSConfig(dmin float64) LSSConfig {
	return LSSConfig{
		DMin:       dmin,
		Step:       0.02,
		MaxIters:   4000,
		Restarts:   14,
		SeedMDSMap: true,
	}
}

// Validate checks the configuration.
func (c LSSConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"DMin", c.DMin}, {"Step", c.Step}, {"InitSpread", c.InitSpread}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: non-finite %s %v", f.name, f.v)
		}
	}
	switch {
	case c.DMin < 0:
		return errors.New("core: negative DMin")
	case c.Mode != 0 && c.Mode != StepAdaptive && c.Mode != StepFixed:
		return errors.New("core: invalid StepMode")
	case c.Step <= 0:
		return errors.New("core: non-positive Step")
	case c.MaxIters <= 0:
		return errors.New("core: non-positive MaxIters")
	case c.Restarts < 0:
		return errors.New("core: negative Restarts")
	}
	return nil
}

// LSSResult is the output of the centralized LSS solver. Coordinates are in
// an arbitrary rigid frame (translation/rotation/reflection are not
// observable from distances alone); align to ground truth with eval.Fit.
type LSSResult struct {
	Positions []geom.Point
	// Error is the final value of the full objective E (Ew + soft terms).
	Error float64
	// UnconstrainedError is the final Ew alone (comparable across
	// with/without-constraint runs, cf. Figure 23's caption discussion).
	UnconstrainedError float64
	// Iterations is the total number of gradient steps across restarts.
	Iterations int
	// History records the objective at each gradient step of the best
	// descent trajectory (Figure 23's error-vs-epoch curves).
	History []float64
}

// SolveLSS runs centralized least squares scaling over a measurement set:
// minimize
//
//	E = Σ_{dij∈D} wij (‖pi−pj‖ − dij)²
//	  + Σ_{dij∉D} wD (min(‖pi−pj‖, dmin) − dmin)²
//
// by gradient descent with perturbation restarts. The rng seeds the initial
// configuration and restart perturbations.
func SolveLSS(set *measure.Set, cfg LSSConfig, rng *rand.Rand) (*LSSResult, error) {
	return SolveLSSIn(nil, set, cfg, rng)
}

// SolveLSSIn is SolveLSS with every solver workspace — the problem's pair
// tables, descent point, separation and gradient buffers, objective
// histories, and the MDS-MAP seed path — borrowed from ws (nil ws
// allocates). The returned result's Positions and History are arena-owned:
// valid only until ws's next Release; copy them out to keep them longer.
func SolveLSSIn(ws *scratch.Arena, set *measure.Set, cfg LSSConfig, rng *rand.Rand) (*LSSResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: SolveLSS: %w", err)
	}
	if rng == nil {
		return nil, errors.New("core: SolveLSS: nil rng")
	}
	n := set.N()
	if n < 3 {
		return nil, fmt.Errorf("core: SolveLSS: need at least 3 nodes, have %d", n)
	}
	if set.Len() == 0 {
		return nil, errors.New("core: SolveLSS: empty measurement set")
	}

	prob := newLSSProblem(ws, set, cfg)

	spread := cfg.InitSpread
	if spread <= 0 {
		spread = prob.distanceScale() * math.Sqrt(float64(n))
	}
	perturb := 0.3 * prob.distanceScale()
	randomConfig := func(dst []geom.Point) {
		for i := range dst {
			dst[i] = geom.Pt(rng.Float64()*spread, rng.Float64()*spread)
		}
	}

	cur := ws.Points(n)
	randomConfig(cur)

	best := ws.Points(n)
	copy(best, cur)
	bestErr := prob.objective(best)
	var bestHistory []float64
	totalIters := 0
	// Two history buffers serve every descent: one holds the best descent's
	// history so far, the other takes the next descent's. +1 so descend's
	// final append(history, e) stays in place.
	histories := [2][]float64{ws.Float64Cap(cfg.MaxIters + 1), ws.Float64Cap(cfg.MaxIters + 1)}
	free := 0
	// stale counts the consecutive descents that lowered bestErr by less
	// than seededGain relative.
	stale := 0
	descendFrom := func(start []geom.Point) {
		final, history, iters, e := prob.descend(histories[free], start, cfg)
		totalIters += iters
		stale++
		if e < bestErr {
			if bestErr-e >= seededGain*math.Abs(bestErr) {
				stale = 0
			}
			bestErr = e
			copy(best, final)
			bestHistory = history
			free = 1 - free
		}
	}

	seeded := false
	if cfg.SeedMDSMap && set.Connected() {
		if seed, err := SolveMDSMapIn(ws, set); err == nil {
			descendFrom(seed)
			seeded = true
		}
	}

	for round := 0; round <= cfg.Restarts; round++ {
		if seeded && stale >= seededPlateau {
			break
		}
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
		default:
			// Fresh random configuration: escapes reflection folds.
			randomConfig(cur)
		}
		descendFrom(cur)
	}
	// Checked only after the last descent, so a non-finite objective moves
	// no rng draw of the solve.
	if math.IsNaN(bestErr) || math.IsInf(bestErr, 0) {
		return nil, fmt.Errorf("core: SolveLSS: non-finite objective %v", bestErr)
	}

	return &LSSResult{
		Positions:          best,
		Error:              bestErr,
		UnconstrainedError: prob.weightedStress(best, prob.nextDs, math.Inf(1)),
		Iterations:         totalIters,
		History:            bestHistory,
	}, nil
}

// A seeded solve stops descending after seededPlateau consecutive descents
// that each lower the best objective by less than seededGain relative. On
// the town the MDS-MAP-seeded descent already ends within about 1e-12 of
// the full-budget objective, and the restarts after it only repeat that
// minimum. Random-only solves keep every restart: on sparse data they still
// find gains far above seededGain late in the budget. Three is the smallest
// plateau that still runs a seeded two-restart solve (random, perturbed and
// fresh random starts) in full.
const (
	seededPlateau = 3
	seededGain    = 1e-9
)

// lssProblem holds the preprocessed measurement data and the descent
// workspaces of one solve.
type lssProblem struct {
	n int
	// lo[k], hi[k] is pair k: first the measured pairs in the set's
	// insertion order, with distance dist[k] and weight w[k]; then, when the
	// soft constraint is on, every unmeasured pair, i-major and j-ascending.
	// eval records pair k's separation at ds[k] in the same order.
	lo, hi  []int
	dist, w []float64
	dmin    float64
	// farSq is dmin²·(1+1e-6). A soft pair whose computed dx²+dy² exceeds
	// it is beyond dmin by far more than any rounding in that sum or in
	// Hypot, so Hypot(dx, dy) ≥ dmin and the pair adds nothing to E or ∇E.
	farSq float64
	// near is a Verlet list (Verlet, Phys. Rev. 159, 98, 1967) of the soft
	// pairs: the ascending indices k whose computed dx²+dy² was not above
	// nearSq = (dmin+skin)² at the positions ref, with skin = dmin/3. eval
	// rebuilds it once any node has moved 0.49·skin or more from ref, whose
	// square is moveSq (see refreshNear), and eval and gradient walk only
	// the listed pairs.
	near           []int
	ref            []geom.Point
	nearSq, moveSq float64
	// Descent workspaces, shared by every descent of the solve: two points
	// and their pair separations, which descend swaps on each accepted step,
	// and the gradient.
	cur, next     []geom.Point
	curDs, nextDs []float64
	grad          []float64
}

func newLSSProblem(ws *scratch.Arena, set *measure.Set, cfg LSSConfig) *lssProblem {
	n := set.N()
	m := set.Len()
	p := &lssProblem{
		n: n,
		// Each pair appears at most once, measured or soft.
		lo:    ws.IntCap(n * (n - 1) / 2),
		hi:    ws.IntCap(n * (n - 1) / 2),
		dist:  ws.Float64s(m),
		w:     ws.Float64s(m),
		dmin:  cfg.DMin,
		farSq: cfg.DMin * cfg.DMin * (1 + 1e-6),
	}
	// measured[lo*n+hi] marks pairs with a distance measurement; the soft
	// constraint applies only to unmeasured pairs.
	measured := ws.Bools(n * n)
	for pm := range set.Measurements() {
		k := len(p.lo)
		p.lo = append(p.lo, pm.Pair.Lo)
		p.hi = append(p.hi, pm.Pair.Hi)
		p.dist[k] = pm.Distance
		p.w[k] = pm.Weight
		measured[pm.Pair.Lo*n+pm.Pair.Hi] = true
	}
	if p.dmin > 0 {
		for i := 0; i < n; i++ {
			mrow := measured[i*n : i*n+n]
			for j := i + 1; j < n; j++ {
				if !mrow[j] {
					p.lo = append(p.lo, i)
					p.hi = append(p.hi, j)
				}
			}
		}
	}
	skin := p.dmin / 3
	p.nearSq = (p.dmin + skin) * (p.dmin + skin)
	p.moveSq = 0.49 * skin * 0.49 * skin
	if p.moveSq < 0x1p-900 {
		// Squares this close to the subnormal range lose the relative
		// precision refreshNear's margin argument rests on: rebuild at
		// every eval instead.
		p.moveSq = 0
	}
	p.near = ws.IntCap(len(p.lo) - m)
	p.ref = ws.Points(n)
	for i := range p.ref {
		p.ref[i] = geom.Pt(math.NaN(), math.NaN()) // the first eval rebuilds
	}
	p.cur = ws.Points(n)
	p.next = ws.Points(n)
	p.curDs = ws.Float64s(len(p.lo))
	p.nextDs = ws.Float64s(len(p.lo))
	p.grad = ws.Float64s(2 * n)
	return p
}

// distanceScale returns the mean measured distance, used to size the random
// initial configuration.
func (p *lssProblem) distanceScale() float64 {
	if len(p.dist) == 0 {
		return 1
	}
	var s float64
	for _, d := range p.dist {
		s += d
	}
	return s / float64(len(p.dist))
}

// minSeparation guards divisions by near-zero computed distances.
const minSeparation = 1e-9

// pairBlock is how many measured pairs eval handles at a time. It computes
// the separations of a whole block before adding any of its terms to E: they
// are independent of one another, so their divides and square roots overlap
// instead of each waiting behind the serial sum.
const pairBlock = 64

// objective computes the full E including soft-constraint terms. It records
// the separations in nextDs, which only descend reads, and only after
// writing it.
func (p *lssProblem) objective(pos []geom.Point) float64 {
	return p.eval(pos, p.nextDs, math.Inf(1))
}

// eval computes the full E including soft-constraint terms and records in ds,
// for gradient at the same pos, the separation of every measured pair and of
// every soft pair on the near list. A listed soft pair the farSq test puts
// beyond dmin is recorded as +Inf; an unlisted one is beyond dmin too (see
// refreshNear), and its ds entry is neither written nor read.
//
// A finite bound lets eval stop as soon as the partial sum reaches it, and
// return that partial sum: every term is w·r² or wd·r² with a positive
// weight, and adding a non-negative term under round-to-nearest never lowers
// a sum (NaN stays NaN). So the result is below bound exactly when the full
// E is, and then it is the full E with all of ds written. A bound of +Inf
// never stops the evaluation.
func (p *lssProblem) eval(pos []geom.Point, ds []float64, bound float64) float64 {
	e := p.weightedStress(pos, ds, bound)
	bounded := bound < math.Inf(1)
	if bounded && e >= bound {
		return e
	}
	if len(p.lo) > len(p.dist) {
		p.refreshNear(pos)
	}
	for _, k := range p.near {
		dx := pos[p.lo[k]].X - pos[p.hi[k]].X
		dy := pos[p.lo[k]].Y - pos[p.hi[k]].Y
		var d float64
		if dx*dx+dy*dy > p.farSq {
			d = math.Inf(1)
		} else {
			d = math.Hypot(dx, dy) // NaN lands here, as without the filter
		}
		ds[k] = d
		if d < p.dmin {
			r := d - p.dmin
			e += softWeight * r * r
			if bounded && e >= bound {
				return e
			}
		}
	}
	return e
}

// maxNearCoord bounds the coordinates whose pair differences rebuildNear
// squares: up to 2^500, no dx²+dy² can overflow.
const maxNearCoord = 0x1p500

// refreshNear rebuilds the near list at pos unless every node is still less
// than 0.49·skin from ref; a NaN or infinite move fails that test too.
//
// The margin argument: an unlisted pair was more than dmin+skin apart at ref
// and both of its nodes have since moved less than 0.49·skin, so it is still
// more than dmin + 0.02·skin = dmin·(1+1/150) apart. Every quantity compared
// is a square computed to a few ulps of relative error, so its dx²+dy² is
// above 1.013·dmin² and far above farSq whatever the rounding, and it adds
// nothing to E or ∇E, exactly as when every soft pair was walked. A rebuild
// at a position with a non-finite coordinate, or one large enough for a
// square to overflow, lists every soft pair, so the argument never has to
// cover them and there is still only one soft-pair loop.
func (p *lssProblem) refreshNear(pos []geom.Point) {
	for i, r := range p.ref {
		dx := pos[i].X - r.X
		dy := pos[i].Y - r.Y
		if !(dx*dx+dy*dy < p.moveSq) {
			p.rebuildNear(pos)
			return
		}
	}
}

// rebuildNear lists, ascending, the soft pairs whose computed dx²+dy² at pos
// is not above nearSq, or every soft pair if a coordinate is beyond
// maxNearCoord or non-finite, and makes pos the new ref.
func (p *lssProblem) rebuildNear(pos []geom.Point) {
	copy(p.ref, pos)
	all := false
	for _, q := range pos {
		if !(math.Abs(q.X) <= maxNearCoord && math.Abs(q.Y) <= maxNearCoord) {
			all = true
			break
		}
	}
	p.near = p.near[:0]
	for k := len(p.dist); k < len(p.lo); k++ {
		dx := pos[p.lo[k]].X - pos[p.hi[k]].X
		dy := pos[p.lo[k]].Y - pos[p.hi[k]].Y
		if all || dx*dx+dy*dy <= p.nearSq {
			p.near = append(p.near, k)
		}
	}
}

// weightedStress computes Ew = Σ wij (‖pi−pj‖ − dij)² over the measured
// pairs, recording each one's separation in ds, block by block. It stops
// after a block whose partial sum reaches a finite bound, as eval does.
func (p *lssProblem) weightedStress(pos []geom.Point, ds []float64, bound float64) float64 {
	bounded := bound < math.Inf(1)
	var e float64
	for k0 := 0; k0 < len(p.dist); k0 += pairBlock {
		k1 := min(k0+pairBlock, len(p.dist))
		lo, hi, blk := p.lo[k0:k1], p.hi[k0:k1], ds[k0:k1]
		for k := range blk {
			dx := pos[lo[k]].X - pos[hi[k]].X
			dy := pos[lo[k]].Y - pos[hi[k]].Y
			// math.Hypot's own formula for finite inputs, written as the
			// math package writes it so that it compiles to the same
			// operations: the larger magnitude times √(1+(smaller/larger)²).
			big := max(math.Abs(dx), math.Abs(dy))
			if 0 < big && big <= math.MaxFloat64 {
				q := min(math.Abs(dx), math.Abs(dy)) / big
				blk[k] = big * math.Sqrt(1+q*q)
			} else {
				blk[k] = math.Hypot(dx, dy) // zero, infinite or NaN
			}
		}
		dist, w := p.dist[k0:k1], p.w[k0:k1]
		for k, d := range blk {
			r := d - dist[k]
			e += w[k] * r * r
		}
		if bounded && e >= bound {
			return e
		}
	}
	return e
}

// gradient writes ∇E at pos into grad (len 2n: x components then y
// components). ds must hold the separations eval recorded at the same pos,
// and that eval must be the last one: gradient walks the near list it
// walked, so it reads exactly the soft separations it wrote. descend calls
// gradient only right after the initial or an accepting full eval, and
// descendFixed right after its own eval.
func (p *lssProblem) gradient(pos []geom.Point, ds, grad []float64) {
	clear(grad)
	n := p.n
	m := len(p.dist)
	for k, d := range ds[:m] {
		if d < minSeparation {
			continue // coincident points: zero gradient direction, skip
		}
		i, j := p.lo[k], p.hi[k]
		dx := pos[i].X - pos[j].X
		dy := pos[i].Y - pos[j].Y
		g := 2 * p.w[k] * (d - p.dist[k]) / d
		grad[i] += g * dx
		grad[j] -= g * dx
		grad[n+i] += g * dy
		grad[n+j] -= g * dy
	}
	for _, k := range p.near {
		d := ds[k]
		if d >= p.dmin || d < minSeparation {
			continue
		}
		i, j := p.lo[k], p.hi[k]
		dx := pos[i].X - pos[j].X
		dy := pos[i].Y - pos[j].Y
		g := 2 * softWeight * (d - p.dmin) / d
		grad[i] += g * dx
		grad[j] -= g * dx
		grad[n+i] += g * dy
		grad[n+j] -= g * dy
	}
}

// descend runs one gradient-descent trajectory from start and returns the
// final configuration, the per-iteration objective history, the number of
// iterations performed, and the final objective. In adaptive mode the step
// halves when it would increase the objective (retrying the step) and grows
// on success; in fixed mode the paper's constant-α rule applies verbatim.
// The history is appended to history[:0]; the final configuration is one of
// p's workspaces, overwritten by the next descent.
func (p *lssProblem) descend(history []float64, start []geom.Point, cfg LSSConfig) ([]geom.Point, []float64, int, float64) {
	if cfg.Mode == StepFixed {
		return p.descendFixed(history, start, cfg)
	}
	n := p.n
	cur, next := p.cur, p.next
	curDs, nextDs := p.curDs, p.nextDs
	grad := p.grad
	copy(cur, start)
	history = history[:0]

	e := p.eval(cur, curDs, math.Inf(1))
	step := cfg.Step
	plateau := 0
	iters := 0
	for it := 0; it < cfg.MaxIters; it++ {
		iters++
		history = append(history, e)
		p.gradient(cur, curDs, grad)

		improved := false
		for attempt := 0; attempt < 40; attempt++ {
			for i := 0; i < n; i++ {
				next[i] = geom.Pt(cur[i].X-step*grad[i], cur[i].Y-step*grad[n+i])
			}
			// A step that cannot beat e is rejected whatever its exact
			// value, so its evaluation stops once it reaches e.
			ne := p.eval(next, nextDs, e)
			if ne < e {
				improved = true
				relDrop := (e - ne) / (math.Abs(e) + 1e-30)
				cur, next = next, cur
				curDs, nextDs = nextDs, curDs
				e = ne
				step *= 1.5
				if relDrop < descentTol {
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
	return cur, append(history, e), iters, e
}

// descendFixed is the paper's Eq. (1) verbatim: constant-step gradient
// descent. The only concession to float safety is halving the step when the
// objective stops being finite (a divergence the paper's hand-tuned α
// avoided by construction).
func (p *lssProblem) descendFixed(history []float64, start []geom.Point, cfg LSSConfig) ([]geom.Point, []float64, int, float64) {
	n := p.n
	cur, ds, grad := p.cur, p.curDs, p.grad
	copy(cur, start)
	history = history[:0]

	step := cfg.Step
	e := p.eval(cur, ds, math.Inf(1))
	iters := 0
	for it := 0; it < cfg.MaxIters; it++ {
		iters++
		history = append(history, e)
		p.gradient(cur, ds, grad)
		for i := 0; i < n; i++ {
			cur[i] = geom.Pt(cur[i].X-step*grad[i], cur[i].Y-step*grad[n+i])
		}
		e = p.eval(cur, ds, math.Inf(1))
		if math.IsNaN(e) || math.IsInf(e, 0) {
			// Diverged: rewind the step and continue more cautiously.
			for i := 0; i < n; i++ {
				cur[i] = geom.Pt(cur[i].X+step*grad[i], cur[i].Y+step*grad[n+i])
			}
			step /= 2
			e = p.eval(cur, ds, math.Inf(1))
			if step < 1e-15 {
				break
			}
		}
	}
	return cur, append(history, e), iters, e
}
