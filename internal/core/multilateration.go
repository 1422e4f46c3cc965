package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/scratch"
)

// MultilatConfig parameterizes anchor-based multilateration (Section 4.1).
type MultilatConfig struct {
	// ConsistencyRadius enables the intersection consistency check of
	// Section 4.1.2 when positive: anchors whose range circles have no
	// intersection point within this radius of another pair's intersection
	// point are discarded (paper example: 1 m).
	ConsistencyRadius float64
	// Progressive, when true, promotes localized nodes to anchors and
	// iterates, the Section 4.1.1 extension ("Once localized, they become
	// anchor nodes and are used to localize the remaining non-anchors").
	Progressive bool
}

// minAnchors is the minimum number of anchors with consistent distance
// measurements required to localize a node: three for an unambiguous planar
// fix.
const minAnchors = 3

// gaussNewtonIters bounds the per-node Gauss-Newton refinement iterations.
const gaussNewtonIters = 100

// DefaultMultilatConfig returns the configuration of the paper's
// experiments: 3-anchor minimum, 1 m consistency radius, no progressive
// promotion ("we used the original set of anchors only").
func DefaultMultilatConfig() MultilatConfig {
	return MultilatConfig{
		ConsistencyRadius: 1.0,
		Progressive:       false,
	}
}

// Validate checks the configuration.
func (c MultilatConfig) Validate() error {
	if !(c.ConsistencyRadius >= 0) || math.IsInf(c.ConsistencyRadius, 1) {
		// A NaN radius would switch the check off silently (NaN > 0 is
		// false).
		return errors.New("core: ConsistencyRadius must be finite and non-negative")
	}
	return nil
}

// MultilatResult is the output of a multilateration run.
type MultilatResult struct {
	// Positions maps localized node index → estimated position, in the
	// anchors' absolute frame. Non-localized nodes are absent (the paper's
	// "boxes with no corresponding cross").
	Positions map[int]geom.Point
	// Localized lists localized non-anchor node indices, ascending.
	Localized []int
	// AvgAnchorsPerNode is the mean number of anchor measurements available
	// per non-anchor node before consistency filtering (paper: 1.47 on the
	// sparse grid, 3.84 augmented).
	AvgAnchorsPerNode float64
}

// anchorObs is one anchor-distance observation for a node being localized.
type anchorObs struct {
	pos    geom.Point
	d      float64
	weight float64
}

// nbr is one precomputed adjacency entry: a neighbor node together with the
// distance and weight of the connecting measurement. Precomputing the
// adjacency once per solve replaces a Neighbors allocation plus a map lookup
// per edge per pass.
type nbr struct {
	node int
	d, w float64
}

// ipt is a range-circle intersection point tagged with the indices of the
// two circles that produced it.
type ipt struct {
	p    geom.Point
	a, b int
}

// fix is a node localized in a pass of SolveMultilaterationIn.
type fix struct {
	node int
	pos  geom.Point
}

// sweepPt is an intersection point in the X-sorted order of the sweep: its
// coordinates and its index in the unsorted points.
type sweepPt struct {
	x, y float64
	i    int32
}

// mlWorkspace holds the reusable buffers of a multilateration solve. It is
// stashed in the trial arena (surviving Release) so repeated trials on one
// shard reuse the same storage. The zero value is ready to use.
type mlWorkspace struct {
	adj     []nbr // CSR-style flat adjacency, segments sorted by neighbor
	obs     []anchorObs
	fixes   []fix
	pts     []ipt
	order   []sweepPt // the points of pts sorted by X
	rank    []int32   // rank[x] is the position of point x in order
	rows    []uint64  // the sweep's near rows, one per rank (see sweep)
	words   int       // words per row
	support []int32   // support[x] is the support of point x of pts
	keep    []bool
}

func multilatWS(ws *scratch.Arena) *mlWorkspace {
	// A nil arena builds a fresh workspace per call (Stash's fallback).
	return ws.Stash("core.multilat", func() any { return &mlWorkspace{} }).(*mlWorkspace)
}

// SolveMultilateration localizes every non-anchor node that has distance
// measurements to at least three anchors, by least squares over
//
//	argmin Σ_a w(c_a)·(‖p − p_a‖ − d_a)²
//
// (Section 4.1.1). anchors maps node index → known position. With
// Progressive set, newly localized nodes join the anchor set (at reduced
// weight) and localization repeats until a fixpoint.
func SolveMultilateration(set *measure.Set, anchors map[int]geom.Point, cfg MultilatConfig) (*MultilatResult, error) {
	return SolveMultilaterationIn(nil, set, anchors, cfg)
}

// SolveMultilaterationIn is SolveMultilateration with all per-solve working
// storage — the flattened adjacency and the observation and
// consistency-filter buffers — borrowed from ws (nil ws allocates). The
// returned result is heap-allocated and safe to retain.
func SolveMultilaterationIn(ws *scratch.Arena, set *measure.Set, anchors map[int]geom.Point, cfg MultilatConfig) (*MultilatResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: SolveMultilateration: %w", err)
	}
	if len(anchors) == 0 {
		return nil, errors.New("core: SolveMultilateration: no anchors")
	}
	n := set.N()
	for a, p := range anchors {
		if a < 0 || a >= n {
			return nil, fmt.Errorf("core: SolveMultilateration: anchor %d out of range", a)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("core: SolveMultilateration: anchor %d has non-finite position %v", a, p)
		}
	}

	// known[i] is node i's position once weight[i] is non-zero: 1 for the
	// surveyed anchors, 0.5 for nodes localized by an earlier pass.
	known := ws.Points(n)
	weight := ws.Float64s(n)
	for a, p := range anchors {
		known[a] = p
		weight[a] = 1
	}

	// Flatten the measurement graph into CSR form once: off[i]..off[i+1]
	// delimits node i's entries in w.adj. Each segment is sorted ascending by
	// neighbor index so the passes below visit observations in exactly the
	// order set.Neighbors would have produced.
	w := multilatWS(ws)
	off := ws.Ints(n + 1)
	for m := range set.Measurements() {
		off[m.Pair.Lo+1]++
		off[m.Pair.Hi+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	if cap(w.adj) < 2*set.Len() {
		w.adj = make([]nbr, 2*set.Len())
	}
	adj := w.adj[:2*set.Len()]
	cur := ws.Ints(n)
	copy(cur, off[:n])
	for m := range set.Measurements() {
		adj[cur[m.Pair.Lo]] = nbr{node: m.Pair.Hi, d: m.Distance, w: m.Weight}
		cur[m.Pair.Lo]++
		adj[cur[m.Pair.Hi]] = nbr{node: m.Pair.Lo, d: m.Distance, w: m.Weight}
		cur[m.Pair.Hi]++
	}
	for i := 0; i < n; i++ {
		seg := adj[off[i]:off[i+1]]
		// Insertion sort: node degrees are small and the segments are nearly
		// sorted already (measurements are added in index order).
		for a := 1; a < len(seg); a++ {
			for b := a; b > 0 && seg[b].node < seg[b-1].node; b-- {
				seg[b], seg[b-1] = seg[b-1], seg[b]
			}
		}
	}

	// Count original-anchor availability for the AvgAnchorsPerNode metric.
	nonAnchors := 0
	totalAnchorMeas := 0
	for i := 0; i < n; i++ {
		if weight[i] != 0 {
			continue
		}
		nonAnchors++
		for _, nb := range adj[off[i]:off[i+1]] {
			if weight[nb.node] != 0 {
				totalAnchorMeas++
			}
		}
	}
	var avgAnchors float64
	if nonAnchors > 0 {
		avgAnchors = float64(totalAnchorMeas) / float64(nonAnchors)
	}

	// A node is dirty until it is evaluated, and again when a neighbor is
	// localized. A clean node's observations would repeat exactly, since
	// known positions and weights never change once set, and so would its
	// outcome: it is skipped.
	dirty := ws.Bools(n)
	for i := range dirty {
		dirty[i] = true
	}
	fixes := w.fixes[:0]
	for {
		// Each pass works from a snapshot of the anchor set: without the
		// Progressive extension, only the original anchors are ever used
		// ("we used the original set of anchors only").
		start := len(fixes)
		for i := 0; i < n; i++ {
			if weight[i] != 0 || !dirty[i] {
				continue
			}
			dirty[i] = false
			obs := w.obs[:0]
			for _, nb := range adj[off[i]:off[i+1]] {
				if weight[nb.node] == 0 {
					continue
				}
				obs = append(obs, anchorObs{pos: known[nb.node], d: nb.d, weight: weight[nb.node] * nb.w})
			}
			w.obs = obs // retain grown capacity for the next node
			if cfg.ConsistencyRadius > 0 {
				obs = filterConsistentIn(w, obs, cfg.ConsistencyRadius)
			}
			if len(obs) < minAnchors {
				continue
			}
			p, err := solveNode(obs)
			if err != nil {
				continue // degenerate geometry: leave unlocalized
			}
			fixes = append(fixes, fix{node: i, pos: p})
		}
		for _, f := range fixes[start:] {
			known[f.node] = f.pos
			weight[f.node] = 0.5 // localized nodes carry less confidence than surveyed anchors
			for _, nb := range adj[off[f.node]:off[f.node+1]] {
				dirty[nb.node] = true
			}
		}
		if !cfg.Progressive || len(fixes) == start {
			break
		}
	}
	w.fixes = fixes

	res := &MultilatResult{
		Positions:         make(map[int]geom.Point, len(fixes)),
		AvgAnchorsPerNode: avgAnchors,
	}
	if len(fixes) > 0 {
		res.Localized = make([]int, len(fixes))
	}
	for k, f := range fixes {
		res.Positions[f.node] = f.pos
		res.Localized[k] = f.node
	}
	slices.Sort(res.Localized)
	return res, nil
}

// filterConsistentIn implements the Section 4.1.2 intersection consistency
// check. The intersection points of consistent anchors' range circles "form
// a cluster around the node being localized"; we find the largest cluster
// of pairwise circle-intersection points and keep the anchors that
// contribute a point to it. Anchors whose circles have no intersection
// point near the cluster (e.g. the near-collinear anchor of Figure 11) are
// discarded. With fewer than 3 anchors the check is vacuous and obs is
// returned unchanged.
//
// A point's support is the number of distinct circle pairs contributing a
// point within radius of it (the "mode of the intersection points" the
// paper mentions), and the center is the first point of largest support in
// pts order. Both come from the sweep's near rows. Intersect2 yields at most
// two points per circle pair, so the number of distinct pairs near x is the
// number of points near x (the popcount of x's row) minus the number of
// pairs with both points near x. A pair's two points are adjacent in pts,
// and the points near both are the AND of their rows, so each such pair
// takes one off the support of every point in that AND. The kept anchors
// are those of the points in the center's row.
//
// Working storage comes from w, and the surviving observations are
// compacted in place, so the returned slice aliases obs (the write index
// never passes the read index, making the compaction value-identical to
// appending into a fresh slice).
func filterConsistentIn(w *mlWorkspace, obs []anchorObs, radius float64) []anchorObs {
	if len(obs) < 3 {
		return obs
	}
	// Allow near-miss circles to produce a midpoint: measurement error often
	// separates circles that should intersect.
	pts := intersections(w, obs, radius/2)
	if len(pts) == 0 {
		// Degenerate: no circles intersect at all; fall back to the
		// unfiltered set rather than discarding everything (the paper keeps
		// suspicious measurements when data is scarce).
		return obs
	}
	w.sweep(pts, radius)

	np := len(pts)
	if cap(w.support) < np {
		w.support = make([]int32, np)
	}
	support := w.support[:np]
	for x := range support {
		support[x] = int32(popcount(w.row(x)))
	}
	for x := 1; x < np; x++ {
		if pts[x].a != pts[x-1].a || pts[x].b != pts[x-1].b {
			continue
		}
		r0, r1 := w.row(x-1), w.row(x)
		for i := range r0 {
			for m := r0[i] & r1[i]; m != 0; m &= m - 1 {
				support[w.order[i<<6|bits.TrailingZeros64(m)].i]--
			}
		}
	}
	bestIdx, bestSupport := 0, int32(-1)
	for x, s := range support {
		if s > bestSupport {
			bestSupport = s
			bestIdx = x
		}
	}

	if cap(w.keep) < len(obs) {
		w.keep = make([]bool, len(obs))
	}
	keep := w.keep[:len(obs)]
	clear(keep)
	for i, m := range w.row(bestIdx) {
		for ; m != 0; m &= m - 1 {
			pt := &pts[w.order[i<<6|bits.TrailingZeros64(m)].i]
			keep[pt.a] = true
			keep[pt.b] = true
		}
	}
	out := obs[:0]
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

// intersections collects the intersection points of every pair of the
// observations' range circles into w.pts, pair by pair in index order.
func intersections(w *mlWorkspace, obs []anchorObs, tol float64) []ipt {
	pts := w.pts[:0]
	for i := range obs {
		ci := geom.Circle{Center: obs[i].pos, R: obs[i].d}
		for j := i + 1; j < len(obs); j++ {
			ij, k := ci.Intersect2(geom.Circle{Center: obs[j].pos, R: obs[j].d}, tol)
			for _, p := range ij[:k] {
				pts = append(pts, ipt{p: p, a: i, b: j})
			}
		}
	}
	w.pts = pts
	return pts
}

// sweep records which of the intersection points pts lie within radius of
// one another, as near rows: w.rows holds one row of len(pts) bits per
// point, both indexed by rank in the X-sorted order, and bit k of row j is
// set when math.Hypot of the separation of the points of ranks j and k is at
// most radius. A point is in its own row when its separation from itself,
// (0, 0) for finite coordinates, is within radius.
//
// The points are sorted by X once, with an insertion sort in cmp.Compare's
// order, NaN first, which is total; ties may land in any order. Then, for
// each point a in that order, the sweep tests the points b = a, a+1, … until
// |x_a − x_b| exceeds radius, each pair once, and sets both bits. The
// result is the all-pairs relation, for two reasons:
//   - The window stays contiguous. Hypot(dx, dy) ≥ |dx| in floating point as
//     in exact arithmetic, so no point past the stop is within radius, and
//     the rounded difference x_a − x_b is monotone in x_b, so the points
//     before it all satisfy the bound. A NaN difference never stops the walk:
//     a NaN x_a sorts first and walks every later point, and the NaN points
//     before a are tested from their own walks.
//   - within is symmetric. Under round-to-nearest fl(p−q) = −fl(q−p) for
//     every IEEE input, and within reads only the squares of dx and dy and
//     math.Hypot, which both ignore sign, so testing the pair from a decides
//     it from b as well.
//
// Each pair's bit is disk.within's verdict, decided mostly without a call
// (within's Hypot puts it over the inliner's budget) and without a
// data-dependent branch on the common path. The bit is s < lo, for the
// squared separation s, computed without a branch. Only when
// |s − r²| ≤ 2e-6·r², or s is NaN, does within decide instead. That is
// exact: within returns s < lo for every s outside [lo, hi] ∪ {NaN}, and
// the tested set contains [lo, hi] ∪ {NaN} (|lo − r²| and |hi − r²| are
// about 1e-6·r², and rounding is monotone); where newDisk drops the band,
// its half-width is +Inf and within decides every pair. The narrow tested
// band is rarely hit, so its branch predicts well, where a branch on
// s < lo would guess wrong for about half the pairs.
//
// The rows cost about len(pts)²/8 bytes, rounded up to whole words per row:
// 6.5 KB at the 203 points of the largest call in a 14×14 grid solve.
func (w *mlWorkspace) sweep(pts []ipt, radius float64) {
	np := len(pts)
	if cap(w.order) < np {
		w.order = make([]sweepPt, np)
		w.rank = make([]int32, np)
	}
	order, rank := w.order[:np], w.rank[:np]
	for i, pt := range pts {
		order[i] = sweepPt{x: pt.p.X, y: pt.p.Y, i: int32(i)}
	}
	for k := 1; k < np; k++ {
		q := order[k]
		j := k
		for ; j > 0 && (q.x < order[j-1].x || q.x != q.x && order[j-1].x == order[j-1].x); j-- {
			order[j] = order[j-1]
		}
		order[j] = q
	}
	for k, q := range order {
		rank[q.i] = int32(k)
	}

	words := (np + 63) >> 6
	if cap(w.rows) < np*words {
		w.rows = make([]uint64, np*words)
	}
	rows := w.rows[:np*words]
	clear(rows)
	w.words = words
	near := newDisk(radius)
	for a := range order {
		px, py := order[a].x, order[a].y
		ra := rows[a*words : (a+1)*words]
		for b := a; b < np; b++ {
			q := &order[b]
			dx := px - q.x
			if math.Abs(dx) > radius {
				break
			}
			dy := py - q.y
			s := dx*dx + dy*dy
			bit := b2u(s < near.lo)
			if !(math.Abs(s-near.mid) > near.hw) {
				bit = b2u(near.within(dx, dy))
			}
			ra[b>>6] |= bit << (b & 63)
			rows[b*words+(a>>6)] |= bit << (a & 63)
		}
	}
}

// row returns the near row of point x of the last sweep's pts.
func (w *mlWorkspace) row(x int) []uint64 {
	k := int(w.rank[x])
	return w.rows[k*w.words : (k+1)*w.words]
}

// popcount returns the number of set bits of a row.
func popcount(row []uint64) int {
	n := 0
	for _, m := range row {
		n += bits.OnesCount64(m)
	}
	return n
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// disk decides whether a separation (dx, dy) is within a radius r, that is
// whether math.Hypot(dx, dy) <= r, mostly without calling Hypot.
type disk struct {
	r, lo, hi float64 // lo, hi = r²(1−1e-6), r²(1+1e-6)
	// mid, hw = r², 2e-6·r² bound the sweep's wider band |s − mid| ≤ hw,
	// which holds on all of [lo, hi].
	mid, hw float64
}

func newDisk(r float64) disk {
	r2 := r * r
	if !(r2 >= 0x1p-900 && r2 <= 0x1p900) {
		// r² under- or overflowed, or r is NaN: the band no longer bounds
		// the rounding, so every test goes to Hypot.
		return disk{r: r, lo: math.Inf(-1), hi: math.Inf(1), mid: r2, hw: math.Inf(1)}
	}
	return disk{r: r, lo: r2 * (1 - 1e-6), hi: r2 * (1 + 1e-6), mid: r2, hw: 2e-6 * r2}
}

// within reports whether math.Hypot(dx, dy) <= d.r. A squared separation
// outside [lo, hi] decides it: rounding moves dx²+dy² and Hypot by a few
// ulps, far less than the band's relative width, and an overflowed square
// (+Inf) is beyond hi as the true distance is beyond r. Inside the band,
// and for NaN, Hypot decides.
func (d disk) within(dx, dy float64) bool {
	s := dx*dx + dy*dy
	if s < d.lo {
		return true
	}
	if s > d.hi {
		return false
	}
	return math.Hypot(dx, dy) <= d.r
}

// solveNode estimates one node's position from anchor observations: a
// linearized least-squares seed followed by Gauss-Newton refinement of the
// nonlinear range objective.
func solveNode(obs []anchorObs) (geom.Point, error) {
	seed, err := linearSeed(obs)
	if err != nil {
		// Fall back to the weighted centroid of anchors.
		var c geom.Point
		var w float64
		for _, o := range obs {
			c = c.Add(o.pos.Scale(o.weight))
			w += o.weight
		}
		if w == 0 {
			return geom.Point{}, errors.New("core: solveNode: zero total weight")
		}
		seed = c.Scale(1 / w)
	}
	return gaussNewton(obs, seed)
}

// linearSeed linearizes the circle equations by subtracting the first:
// ‖p−pa‖² − d_a² = ‖p−p0‖² − d_0² reduces to A·p = b, one row
// (2(x_a−x_0), 2(y_a−y_0)) of A per further anchor. It solves the
// ridge-regularized normal equations (AᵀA + ρI)·p = Aᵀb in closed form. The
// ridge ρ = 1e-12·(1 + trace/2) keeps the solve stable on nearly collinear
// anchors.
//
// The seed is bit-identical to that of the dense chain it replaced
// (transpose, multiply, ridge, Cholesky, substitution), because it performs
// the same operations in the same order: every sum, the trace included,
// starts from 0 and adds its terms in row order; a pivot that is ≤ 0 or NaN
// fails the seed, as it failed the factorization; forward and back
// substitution follow. One difference is provably invisible: the chain's
// product skipped a term whose left factor was 0. For a finite other factor
// that term is ±0, and adding ±0 to a sum that starts from +0 (and so is
// never −0) changes nothing. For a non-finite one, some x or y of A is ±Inf
// or NaN, so s00 or s11 is +Inf or NaN, and the seed fails either way: a
// pivot is NaN, or l00 = +Inf and y0 or y1 = (±Inf or NaN)/+Inf = NaN. With
// no skip, AᵀA is symmetric, so the lower triangle Cholesky read is s01.
func linearSeed(obs []anchorObs) (geom.Point, error) {
	if len(obs) < 3 {
		return geom.Point{}, errors.New("core: linearSeed: need 3 observations")
	}
	ref := obs[0]
	var s00, s01, s11, b0, b1 float64
	for _, o := range obs[1:] {
		x := 2 * (o.pos.X - ref.pos.X)
		y := 2 * (o.pos.Y - ref.pos.Y)
		rhs := ref.d*ref.d - o.d*o.d +
			o.pos.NormSq() - ref.pos.NormSq()
		s00 += x * x
		s01 += x * y
		s11 += y * y
		b0 += x * rhs
		b1 += y * rhs
	}
	trace := 0 + s00 + s11
	ridge := 1e-12 * (1 + trace/2)

	// AᵀA + ρI = L·Lᵀ with L = [l00 0; l10 l11].
	a00 := s00 + ridge
	if a00 <= 0 || math.IsNaN(a00) {
		return geom.Point{}, errors.New("core: linearSeed: singular normal equations")
	}
	l00 := math.Sqrt(a00)
	l10 := s01 / l00
	p11 := s11 + ridge - l10*l10
	if p11 <= 0 || math.IsNaN(p11) {
		return geom.Point{}, errors.New("core: linearSeed: singular normal equations")
	}
	l11 := math.Sqrt(p11)
	// L·y = Aᵀb, then Lᵀ·p = y.
	y0 := b0 / l00
	y1 := (b1 - l10*y0) / l11
	py := y1 / l11
	p := geom.Pt((y0-l10*py)/l00, py)
	if !p.IsFinite() {
		return geom.Point{}, errors.New("core: linearSeed: non-finite solution")
	}
	return p, nil
}

// gaussNewton refines the weighted nonlinear range least squares from seed.
func gaussNewton(obs []anchorObs, seed geom.Point) (geom.Point, error) {
	p := seed
	for it := 0; it < gaussNewtonIters; it++ {
		// Normal equations for the 2-unknown Gauss-Newton step.
		var jtj00, jtj01, jtj11, jtr0, jtr1 float64
		for _, o := range obs {
			diff := p.Sub(o.pos)
			dist := diff.Norm()
			if dist < minSeparation {
				// Sitting on an anchor: nudge off to restore a gradient.
				diff = geom.Pt(1e-6, 1e-6)
				dist = diff.Norm()
			}
			r := dist - o.d
			jx := diff.X / dist
			jy := diff.Y / dist
			w := o.weight
			jtj00 += w * jx * jx
			jtj01 += w * jx * jy
			jtj11 += w * jy * jy
			jtr0 += w * jx * r
			jtr1 += w * jy * r
		}
		det := jtj00*jtj11 - jtj01*jtj01
		if math.Abs(det) < 1e-14 {
			return geom.Point{}, errors.New("core: gaussNewton: singular normal equations (collinear anchors)")
		}
		dx := (jtj11*jtr0 - jtj01*jtr1) / det
		dy := (jtj00*jtr1 - jtj01*jtr0) / det
		p = geom.Pt(p.X-dx, p.Y-dy)
		if !p.IsFinite() {
			return geom.Point{}, errors.New("core: gaussNewton: diverged")
		}
		if math.Hypot(dx, dy) < 1e-10 {
			break
		}
	}
	return p, nil
}
