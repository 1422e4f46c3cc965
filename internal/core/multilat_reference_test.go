package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"resilientloc/internal/deploy"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/scratch"
)

// This file freezes SolveMultilaterationIn as it stood before the
// consistency check became a sorted sweep: a progressive loop over maps that
// re-solves every unknown node on every pass, an all-pairs Hypot filter and
// an allocating circle intersection. The
// per-node solve is frozen as it stood before its linear seed became a
// closed-form 2×2 solve: refSolveNode seeds through refLinearSeed, a copy of
// the generic dense chain (transpose, multiply, ridge, Cholesky,
// substitution). Only the Gauss-Newton refinement (gaussNewton) is shared:
// it did not change. The production solver must reproduce all of it bit for
// bit.

// refSolveMultilateration is the frozen solver. Inputs are assumed valid.
func refSolveMultilateration(set *measure.Set, anchors map[int]geom.Point, cfg MultilatConfig) *MultilatResult {
	n := set.N()
	known := make(map[int]geom.Point, len(anchors))
	weight := make(map[int]float64, len(anchors))
	for a, p := range anchors {
		known[a] = p
		weight[a] = 1
	}
	res := &MultilatResult{Positions: make(map[int]geom.Point)}

	nonAnchors, totalAnchorMeas := 0, 0
	for i := 0; i < n; i++ {
		if _, isAnchor := anchors[i]; isAnchor {
			continue
		}
		nonAnchors++
		for _, j := range set.Neighbors(i) {
			if _, ok := anchors[j]; ok {
				totalAnchorMeas++
			}
		}
	}
	if nonAnchors > 0 {
		res.AvgAnchorsPerNode = float64(totalAnchorMeas) / float64(nonAnchors)
	}

	for {
		type fix struct {
			node int
			pos  geom.Point
		}
		var fixes []fix
		for i := 0; i < n; i++ {
			if _, done := known[i]; done {
				continue
			}
			var obs []anchorObs
			for _, j := range set.Neighbors(i) {
				ap, ok := known[j]
				if !ok {
					continue
				}
				m, _ := set.Get(i, j)
				obs = append(obs, anchorObs{pos: ap, d: m.Distance, weight: weight[j] * m.Weight})
			}
			if cfg.ConsistencyRadius > 0 {
				obs = refFilterConsistent(obs, cfg.ConsistencyRadius)
			}
			if len(obs) < minAnchors {
				continue
			}
			p, err := refSolveNode(obs)
			if err != nil {
				continue
			}
			fixes = append(fixes, fix{node: i, pos: p})
		}
		for _, f := range fixes {
			known[f.node] = f.pos
			weight[f.node] = 0.5
			res.Positions[f.node] = f.pos
			res.Localized = append(res.Localized, f.node)
		}
		if !cfg.Progressive || len(fixes) == 0 {
			break
		}
	}
	sort.Ints(res.Localized)
	return res
}

// refSolveNode is the frozen per-node solve: the chain's linear seed, or the
// weighted anchor centroid when the seed fails, refined by gaussNewton.
func refSolveNode(obs []anchorObs) (geom.Point, error) {
	seed, err := refLinearSeed(obs)
	if err != nil {
		var c geom.Point
		var w float64
		for _, o := range obs {
			c = c.Add(o.pos.Scale(o.weight))
			w += o.weight
		}
		if w == 0 {
			return geom.Point{}, errors.New("zero total weight")
		}
		seed = c.Scale(1 / w)
	}
	return gaussNewton(obs, seed)
}

// refLinearSeed is the frozen linear seed: the circle equations minus the
// first, as an (n−1)×2 system solved by refLeastSquares.
func refLinearSeed(obs []anchorObs) (geom.Point, error) {
	if len(obs) < 3 {
		return geom.Point{}, errors.New("need 3 observations")
	}
	ref := obs[0]
	a := refMatrix{rows: len(obs) - 1, cols: 2, data: make([]float64, 2*(len(obs)-1))}
	rhs := make([]float64, len(obs)-1)
	for k, o := range obs[1:] {
		a.data[2*k] = 2 * (o.pos.X - ref.pos.X)
		a.data[2*k+1] = 2 * (o.pos.Y - ref.pos.Y)
		rhs[k] = ref.d*ref.d - o.d*o.d +
			o.pos.NormSq() - ref.pos.NormSq()
	}
	x, err := refLeastSquares(a, rhs)
	if err != nil {
		return geom.Point{}, err
	}
	p := geom.Pt(x[0], x[1])
	if !p.IsFinite() {
		return geom.Point{}, errors.New("non-finite solution")
	}
	return p, nil
}

// refMatrix is a row-major dense matrix, the chain's operand.
type refMatrix struct {
	rows, cols int
	data       []float64
}

func newRefMatrix(r, c int) refMatrix {
	return refMatrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// refTranspose is the chain's transpose.
func refTranspose(m refMatrix) refMatrix {
	t := newRefMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// refMul is the chain's product m·b, which skips a zero left entry.
func refMul(m, b refMatrix) refMatrix {
	out := newRefMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// refMulVec is the chain's product m·x, which skips nothing.
func refMulVec(m refMatrix, x []float64) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for j, v := range m.data[i*m.cols : (i+1)*m.cols] {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// refCholesky is the chain's L·Lᵀ factorization, reading a's lower
// triangle.
func refCholesky(a refMatrix) (refMatrix, error) {
	n := a.rows
	l := newRefMatrix(n, n)
	for i := 0; i < n; i++ {
		li := l.data[i*n : i*n+n]
		ai := a.data[i*n : i*n+n]
		for j := 0; j <= i; j++ {
			lj := l.data[j*n : j*n+n]
			sum := ai[j]
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return refMatrix{}, fmt.Errorf("singular: pivot %d = %g", i, sum)
				}
				li[i] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return l, nil
}

// refLeastSquares is the chain: aᵀa plus a trace-scaled ridge, factored by
// refCholesky, then forward and back substitution against aᵀb.
func refLeastSquares(a refMatrix, b []float64) ([]float64, error) {
	c := a.cols
	at := refTranspose(a)
	ata := refMul(at, a)
	var trace float64
	for i := 0; i < c; i++ {
		trace += ata.data[i*c+i]
	}
	ridge := 1e-12 * (1 + trace/float64(c))
	for i := 0; i < c; i++ {
		ata.data[i*c+i] += ridge
	}
	atb := refMulVec(at, b)
	l, err := refCholesky(ata)
	if err != nil {
		return nil, err
	}
	n := c
	ld := l.data
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		li := ld[i*n : i*n+n]
		s := atb[i]
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * x[k]
		}
		x[i] = s / ld[i*n+i]
	}
	return x, nil
}

// refCircleIntersect is the allocating geom.Circle.Intersect.
func refCircleIntersect(c, o geom.Circle, tol float64) []geom.Point {
	d := c.Center.Dist(o.Center)
	if d == 0 {
		return nil
	}
	if d > c.R+o.R+tol || d < math.Abs(c.R-o.R)-tol {
		return nil
	}
	a := (d*d + c.R*c.R - o.R*o.R) / (2 * d)
	h2 := c.R*c.R - a*a
	u := o.Center.Sub(c.Center).Scale(1 / d)
	mid := c.Center.Add(u.Scale(a))
	if h2 <= tol*tol {
		return []geom.Point{mid}
	}
	h := math.Sqrt(h2)
	perp := u.Perp().Scale(h)
	return []geom.Point{mid.Add(perp), mid.Sub(perp)}
}

// refFilterConsistent is the all-pairs consistency check: every point's
// support is counted against every other point with Hypot.
func refFilterConsistent(obs []anchorObs, radius float64) []anchorObs {
	if len(obs) < 3 {
		return obs
	}
	var pts []ipt
	for i := 0; i < len(obs); i++ {
		ci := geom.Circle{Center: obs[i].pos, R: obs[i].d}
		for j := i + 1; j < len(obs); j++ {
			cj := geom.Circle{Center: obs[j].pos, R: obs[j].d}
			for _, p := range refCircleIntersect(ci, cj, radius/2) {
				pts = append(pts, ipt{p: p, a: i, b: j})
			}
		}
	}
	if len(pts) == 0 {
		return obs
	}
	bestIdx, bestSupport := 0, -1
	for x := range pts {
		pairs := map[[2]int]bool{}
		for y := range pts {
			key := [2]int{pts[y].a, pts[y].b}
			if pairs[key] {
				continue
			}
			if pts[x].p.Dist(pts[y].p) <= radius {
				pairs[key] = true
			}
		}
		if len(pairs) > bestSupport {
			bestSupport = len(pairs)
			bestIdx = x
		}
	}
	center := pts[bestIdx].p
	keep := make([]bool, len(obs))
	for _, pt := range pts {
		if pt.p.Dist(center) <= radius {
			keep[pt.a] = true
			keep[pt.b] = true
		}
	}
	var out []anchorObs
	for i, o := range obs {
		if keep[i] {
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		return obs
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePointBits(p, q geom.Point) bool { return sameBits(p.X, q.X) && sameBits(p.Y, q.Y) }

func sameObs(a, b []anchorObs) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !samePointBits(a[i].pos, b[i].pos) || !sameBits(a[i].d, b[i].d) || !sameBits(a[i].weight, b[i].weight) {
			return false
		}
	}
	return true
}

// checkSameResult fails unless got reproduces want bit for bit.
func checkSameResult(t *testing.T, name string, got, want *MultilatResult) {
	t.Helper()
	if !sameBits(got.AvgAnchorsPerNode, want.AvgAnchorsPerNode) {
		t.Fatalf("%s: AvgAnchorsPerNode %v, reference %v", name, got.AvgAnchorsPerNode, want.AvgAnchorsPerNode)
	}
	if fmt.Sprint(got.Localized) != fmt.Sprint(want.Localized) {
		t.Fatalf("%s: Localized %v, reference %v", name, got.Localized, want.Localized)
	}
	if len(got.Positions) != len(want.Positions) {
		t.Fatalf("%s: %d positions, reference %d", name, len(got.Positions), len(want.Positions))
	}
	for i, w := range want.Positions {
		if g, ok := got.Positions[i]; !ok || !samePointBits(g, w) {
			t.Fatalf("%s: node %d at %v, reference %v", name, i, g, w)
		}
	}
}

// multilatInput is one solver input of the reference comparison.
type multilatInput struct {
	name    string
	set     *measure.Set
	anchors map[int]geom.Point
	prog    bool
}

// corruptRanges overestimates a tenth of the measurements by 3 to 15 m, the
// kind of bad range the consistency check exists to reject.
func corruptRanges(t *testing.T, set *measure.Set, rng *rand.Rand) {
	t.Helper()
	for _, m := range set.All() {
		if rng.Intn(10) == 0 {
			if err := set.Add(m.Pair.Lo, m.Pair.Hi, m.Distance+3+12*rng.Float64(), m.Weight); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func referenceInputs(t *testing.T) []multilatInput {
	t.Helper()
	var ins []multilatInput
	anchorMap := func(dep *deploy.Deployment, kept []int) map[int]geom.Point {
		m := make(map[int]geom.Point, len(kept))
		for _, a := range kept {
			m[a] = dep.Positions[a]
		}
		return m
	}
	sides, towns := []int{6, 8, 10, 14, 17, 20}, int64(4)
	if testing.Short() {
		sides, towns = []int{6, 14}, 2
	}
	for _, side := range sides {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(side)))
			dep, err := deploy.OffsetGrid(side, side, 9, 10)
			if err != nil {
				t.Fatal(err)
			}
			if err := dep.ChooseRandomAnchors(dep.N()/10, rng); err != nil {
				t.Fatal(err)
			}
			set, err := measure.Generate(dep, 22, measure.GaussianNoise, rng)
			if err != nil {
				t.Fatal(err)
			}
			if seed == 2 {
				corruptRanges(t, set, rng)
			}
			ins = append(ins, multilatInput{fmt.Sprintf("grid%dx%d/seed%d", side, side, seed), set, anchorMap(dep, dep.Anchors), true})
		}
	}
	for seed := int64(1); seed <= towns; seed++ {
		for _, drop := range []int{0, 6, 12} {
			rng := rand.New(rand.NewSource(seed))
			dep := deploy.Town(rng)
			set, err := measure.Generate(dep, 22, measure.GaussianNoise, rng)
			if err != nil {
				t.Fatal(err)
			}
			if seed%2 == 0 {
				corruptRanges(t, set, rng)
			}
			kept := append([]int(nil), dep.Anchors...)
			rng.Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
			kept = kept[:len(kept)-drop]
			for _, prog := range []bool{false, true} {
				ins = append(ins, multilatInput{fmt.Sprintf("town/seed%d/drop%d/prog=%v", seed, drop, prog), set, anchorMap(dep, kept), prog})
			}
		}
	}
	return ins
}

// TestMultilaterationMatchesReferenceIdentical holds SolveMultilaterationIn
// to the frozen solver bit for bit: positions, Localized and
// AvgAnchorsPerNode, over progressive grids from 6×6 to 20×20, town and
// anchor-dropout inputs (some with overestimated ranges) and three
// consistency radii. One arena is reused across all solves, as a shard
// worker reuses it across trials.
func TestMultilaterationMatchesReferenceIdentical(t *testing.T) {
	ws := scratch.New()
	for _, in := range referenceInputs(t) {
		for _, radius := range []float64{0.25, 1, 3} {
			cfg := DefaultMultilatConfig()
			cfg.ConsistencyRadius = radius
			cfg.Progressive = in.prog
			name := fmt.Sprintf("%s/r=%g", in.name, radius)
			got, err := SolveMultilaterationIn(ws, in.set, in.anchors, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := refSolveMultilateration(in.set, in.anchors, cfg)
			checkSameResult(t, name, got, want)
			ws.Release()
		}
	}
}

// TestFilterConsistentMatchesReferenceIdentical compares the consistency
// check with its frozen all-pairs form on
// random observation sets, on radii set to the exact separation of two
// intersection points (and one ulp below it), so that point separations fall
// in the band where only Hypot decides, on an infinite radius, and on
// observations whose intersection points have NaN or ±Inf coordinates.
func TestFilterConsistentMatchesReferenceIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	w := &mlWorkspace{}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e-300}
	check := func(trial int, obs []anchorObs, radius float64) {
		t.Helper()
		want := refFilterConsistent(append([]anchorObs(nil), obs...), radius)
		got := filterConsistentIn(w, append([]anchorObs(nil), obs...), radius)
		if !sameObs(got, want) {
			t.Fatalf("trial %d, radius %v: filter kept %v, reference %v (input %v)", trial, radius, got, want, obs)
		}
	}
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	for trial := 0; trial < trials; trial++ {
		truth := geom.Pt(rng.Float64()*20, rng.Float64()*20)
		obs := make([]anchorObs, 3+rng.Intn(7))
		for i := range obs {
			a := geom.Pt(rng.Float64()*40-10, rng.Float64()*40-10)
			d := truth.Dist(a) + rng.NormFloat64()*0.5
			if rng.Intn(5) == 0 {
				d += 5 + rng.Float64()*10 // a bad range
			}
			obs[i] = anchorObs{pos: a, d: math.Abs(d) + 0.01, weight: 1}
		}
		if trial%3 == 0 {
			// Non-finite or extreme inputs: their intersection points get
			// NaN or ±Inf coordinates, or overflow the squared separation.
			o := &obs[rng.Intn(len(obs))]
			switch rng.Intn(3) {
			case 0:
				o.pos.X = special[rng.Intn(len(special))]
			case 1:
				o.pos.Y = special[rng.Intn(len(special))]
			default:
				o.d = special[rng.Intn(len(special))]
			}
		}
		for _, radius := range []float64{0.25, 1, 3, math.Inf(1)} {
			check(trial, obs, radius)
		}
		// Radii on the boundary: exactly the separation of two
		// intersection points of different pairs, and the float below it.
		var pts []geom.Point
		for i := range obs {
			for j := i + 1; j < len(obs); j++ {
				pts = append(pts, refCircleIntersect(
					geom.Circle{Center: obs[i].pos, R: obs[i].d},
					geom.Circle{Center: obs[j].pos, R: obs[j].d}, 0.5)...)
			}
		}
		if len(pts) >= 2 {
			r := pts[rng.Intn(len(pts))].Dist(pts[rng.Intn(len(pts))])
			if r > 0 && !math.IsInf(r, 0) && !math.IsNaN(r) {
				check(trial, obs, r)
				check(trial, obs, math.Nextafter(r, 0))
			}
		}
	}
	// Large sets with exact ties, on their own stream so the cases above
	// stay as they are: 10 to 18 observations give up to about 300
	// intersection points, the grid's tail and the sweep sort's worst case.
	// A duplicated anchor (same position and range) repeats every
	// intersection point of its twin exactly, and anchors sharing a Y
	// coordinate give intersection points with equal X.
	big := rand.New(rand.NewSource(16))
	for trial := 0; trial < trials/10; trial++ {
		truth := geom.Pt(big.Float64()*20, big.Float64()*20)
		obs := make([]anchorObs, 10+big.Intn(9))
		for i := range obs {
			a := geom.Pt(big.Float64()*40-10, big.Float64()*40-10)
			d := truth.Dist(a) + big.NormFloat64()*0.5
			if big.Intn(5) == 0 {
				d += 5 + big.Float64()*10
			}
			obs[i] = anchorObs{pos: a, d: math.Abs(d) + 0.01, weight: 1}
		}
		for k := 1 + big.Intn(3); k > 0; k-- {
			src, dst := big.Intn(len(obs)), big.Intn(len(obs))
			if big.Intn(2) == 0 {
				obs[dst] = obs[src]
			} else {
				obs[dst].pos.Y = obs[src].pos.Y
			}
		}
		for _, radius := range []float64{0.25, 1, 3, math.Inf(1)} {
			check(trials+trial, obs, radius)
		}
	}
}

// TestLinearSeedMatchesReferenceIdentical holds the closed-form linear seed,
// and the per-node solve built on it, to the frozen dense chain bit for bit:
// the same point bits and the same error presence. The observation sets have
// 3 to 20 anchors at magnitudes from 1e-150 to 1e150; some share the first
// anchor's X or Y (so a whole column of the system is ±0), some are
// collinear or coincident (a singular pivot), and some carry a NaN or ±Inf
// position or distance.
func TestLinearSeedMatchesReferenceIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	scales := []float64{1, 30, 1e-150, 1e150}
	trials := 20000
	if testing.Short() {
		trials = 4000
	}
	for trial := 0; trial < trials; trial++ {
		scale := scales[rng.Intn(len(scales))]
		truth := geom.Pt(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
		obs := make([]anchorObs, 3+rng.Intn(18))
		dir := geom.Pt(rng.NormFloat64(), rng.NormFloat64())
		for i := range obs {
			a := geom.Pt(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
			switch rng.Intn(8) {
			case 0: // shares the first anchor's X: a zero in the X column
				a.X = obs[0].pos.X
			case 1: // shares the first anchor's Y
				a.Y = obs[0].pos.Y
			case 2: // on a line through the first anchor
				a = obs[0].pos.Add(dir.Scale(rng.NormFloat64() * scale))
			case 3: // coincident with an earlier anchor
				a = obs[rng.Intn(i+1)].pos
			}
			if i == 0 {
				a = geom.Pt(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
			}
			d := truth.Dist(a) * (1 + 0.01*rng.NormFloat64())
			obs[i] = anchorObs{pos: a, d: d, weight: 0.5 + rng.Float64()}
		}
		switch trial % 8 {
		case 0: // every anchor shares X (or Y) with the first: a whole ±0 column
			for i := range obs {
				if trial%16 == 0 {
					obs[i].pos.X = obs[0].pos.X
				} else {
					obs[i].pos.Y = obs[0].pos.Y
				}
			}
		case 1: // all collinear or all coincident: a singular pivot
			for i := range obs {
				obs[i].pos = obs[0].pos.Add(dir.Scale(float64(i%3) * scale * float64(trial%16/8)))
			}
		case 2: // a non-finite or signed-zero position or distance
			o := &obs[rng.Intn(len(obs))]
			v := special[rng.Intn(len(special))]
			switch rng.Intn(3) {
			case 0:
				o.pos.X = v
			case 1:
				o.pos.Y = v
			default:
				o.d = v
			}
		}
		wantSeed, wantErr := refLinearSeed(obs)
		gotSeed, gotErr := linearSeed(obs)
		if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && !samePointBits(gotSeed, wantSeed)) {
			t.Fatalf("trial %d: seed %v (%v), reference %v (%v) for %v", trial, gotSeed, gotErr, wantSeed, wantErr, obs)
		}
		wantP, wantErr := refSolveNode(obs)
		gotP, gotErr := solveNode(obs)
		if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && !samePointBits(gotP, wantP)) {
			t.Fatalf("trial %d: solve %v (%v), reference %v (%v) for %v", trial, gotP, gotErr, wantP, wantErr, obs)
		}
	}
}

// TestDiskWithinMatchesHypotIdentical checks the within helper against the
// Hypot comparison it replaces, on separations in and around the band where
// the squared test cannot decide, on NaN, ±Inf, subnormal and huge values,
// and on infinite, tiny and huge radii.
func TestDiskWithinMatchesHypotIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, 1e-200, 1e-160, 1e160, 1e200, math.MaxFloat64}
	radii := []float64{0.25, 1, 3, math.Inf(1), math.NaN(), 1e-170, 1e-160, 1e-155, 1e-150, 1e150, 1e170}
	for trial := 0; trial < 200000; trial++ {
		r := radii[rng.Intn(len(radii))]
		var dx, dy float64
		switch trial % 3 {
		case 0: // on the circle of radius r, perturbed by a few ulps
			theta := rng.Float64() * 2 * math.Pi
			dx, dy = r*math.Cos(theta), r*math.Sin(theta)
			for i := rng.Intn(4); i > 0; i-- {
				dx = math.Nextafter(dx, math.Inf(1-2*rng.Intn(2)))
			}
		case 1: // anywhere near the disk
			dx, dy = (rng.Float64()-0.5)*4*r, (rng.Float64()-0.5)*4*r
		default:
			dx, dy = special[rng.Intn(len(special))], special[rng.Intn(len(special))]
			if rng.Intn(2) == 0 {
				dy = (rng.Float64() - 0.5) * 4 * r
			}
		}
		if got, want := newDisk(r).within(dx, dy), math.Hypot(dx, dy) <= r; got != want {
			t.Fatalf("within(%v, %v) at r=%v: %v, Hypot says %v", dx, dy, r, got, want)
		}
	}
}

// TestSweepBandMatchesWithinIdentical pins the sweep's inline band test to
// within: for two points at separation (dx, dy), the sweep's near bit must
// be within's verdict. The squared separations sit exactly on the band's
// edges lo and hi and 1 to 4 ulps either side of each, and the separations
// include NaN and ±Inf; the radii include +Inf, one whose square is
// subnormal and one whose square overflows, for which every test goes to
// within.
func TestSweepBandMatchesWithinIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	w := &mlWorkspace{}
	check := func(r, dx, dy float64) {
		t.Helper()
		pts := []ipt{{p: geom.Pt(dx, dy)}, {p: geom.Pt(0, 0)}}
		w.sweep(pts, r)
		k := w.rank[1]
		got := w.row(0)[k>>6]>>(k&63)&1 == 1
		if want := newDisk(r).within(dx, dy); got != want {
			t.Fatalf("r=%v, (dx, dy) = (%v, %v), s=%v: sweep says %v, within %v", r, dx, dy, dx*dx+dy*dy, got, want)
		}
	}
	// separation returns a (dx, dy) whose squared length rounds to s
	// exactly.
	separation := func(s float64) (float64, float64) {
		t.Helper()
		for try := 0; try < 1000; try++ {
			dy := 0.0
			if try > 0 {
				dy = math.Sqrt(s) * rng.Float64()
			}
			dx := math.Sqrt(s - dy*dy)
			for i := 0; i < 4; i++ {
				dx = math.Nextafter(dx, 0)
			}
			for i := 0; i < 9; i++ {
				if dx*dx+dy*dy == s {
					return dx, dy
				}
				dx = math.Nextafter(dx, math.Inf(1))
			}
		}
		t.Fatalf("no separation with squared length %v", s)
		return 0, 0
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, r := range []float64{0.25, 1, 3, 7.3, math.Inf(1), 1e-160, 1e200, math.NaN()} {
		d := newDisk(r)
		edges := []float64{d.lo, d.hi}
		if math.IsInf(d.lo, 0) {
			edges = []float64{r * r} // no band: probe around r² itself
		}
		for _, e := range edges {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				continue
			}
			for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
				s := e
				for ulps := 0; ulps <= 4; ulps++ {
					dx, dy := separation(s)
					check(r, dx, dy)
					check(r, -dy, dx)
					s = math.Nextafter(s, dir)
				}
			}
		}
		// Separations of length r and 1 to 4 ulps either side, which reach
		// the radii whose squares leave the band's range.
		for _, dir := range []float64{0, math.Inf(1)} {
			dx := r
			for ulps := 0; ulps <= 4; ulps++ {
				check(r, dx, 0)
				check(r, 0, dx)
				dx = math.Nextafter(dx, dir)
			}
		}
		for _, v := range special {
			check(r, v, 0)
			check(r, 0, v)
			check(r, v, r/2)
			check(r, r/2, v)
		}
	}
}
