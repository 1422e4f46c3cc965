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
// re-solves every unknown node on every pass, an all-pairs Hypot filter, an
// allocating circle intersection and an allocating intersection mode. The
// production solver must reproduce it bit for bit. The per-node least-squares
// solve (solveNode) is shared: it did not change.

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
			if len(obs) < cfg.MinAnchors {
				continue
			}
			var p geom.Point
			var err error
			if cfg.UseIntersectionMode && len(obs) >= cfg.MinModeAnchors {
				p, err = refIntersectionMode(obs, cfg.ConsistencyRadius)
				if err != nil {
					p, err = solveNode(nil, obs, cfg.MaxIters)
				}
			} else {
				p, err = solveNode(nil, obs, cfg.MaxIters)
			}
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

// refIntersectionMode is the allocating all-pairs intersection mode.
func refIntersectionMode(obs []anchorObs, radius float64) (geom.Point, error) {
	if len(obs) < 3 {
		return geom.Point{}, errors.New("too few anchors")
	}
	if radius <= 0 {
		radius = 1
	}
	var pts []geom.Point
	for i := range obs {
		for j := i + 1; j < len(obs); j++ {
			pts = append(pts, refCircleIntersect(
				geom.Circle{Center: obs[i].pos, R: obs[i].d},
				geom.Circle{Center: obs[j].pos, R: obs[j].d}, radius/2)...)
		}
	}
	if len(pts) == 0 {
		return geom.Point{}, errors.New("no intersections")
	}
	bestIdx, bestCount := 0, -1
	for i, p := range pts {
		count := 0
		for _, q := range pts {
			if p.Dist(q) <= radius {
				count++
			}
		}
		if count > bestCount {
			bestCount = count
			bestIdx = i
		}
	}
	if bestCount < 3 {
		return geom.Point{}, errors.New("no supporting cluster")
	}
	var c geom.Point
	n := 0
	for _, q := range pts {
		if pts[bestIdx].Dist(q) <= radius {
			c = c.Add(q)
			n++
		}
	}
	return c.Scale(1 / float64(n)), nil
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
// anchor-dropout inputs (some with overestimated ranges), three consistency
// radii, and least-squares and intersection-mode estimation. One arena is
// reused across all solves, as a shard worker reuses it across trials.
func TestMultilaterationMatchesReferenceIdentical(t *testing.T) {
	ws := scratch.New()
	for _, in := range referenceInputs(t) {
		for _, radius := range []float64{0.25, 1, 3} {
			for _, mode := range []bool{false, true} {
				cfg := DefaultMultilatConfig()
				cfg.ConsistencyRadius = radius
				cfg.Progressive = in.prog
				cfg.UseIntersectionMode = mode
				name := fmt.Sprintf("%s/r=%g/mode=%v", in.name, radius, mode)
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
}

// TestFilterConsistentMatchesReferenceIdentical compares the consistency
// check and the intersection mode with their frozen all-pairs forms on
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
		wantP, wantErr := refIntersectionMode(obs, radius)
		gotP, gotErr := solveNodeIntersectionMode(w, obs, radius)
		if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && !samePointBits(gotP, wantP)) {
			t.Fatalf("trial %d, radius %v: mode %v (%v), reference %v (%v)", trial, radius, gotP, gotErr, wantP, wantErr)
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
