package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"resilientloc/internal/geom"
	"resilientloc/internal/mat"
	"resilientloc/internal/measure"
	"resilientloc/internal/scratch"
)

// MultilatConfig parameterizes anchor-based multilateration (Section 4.1).
type MultilatConfig struct {
	// MinAnchors is the minimum number of anchors with consistent distance
	// measurements required to localize a node (≥3 for an unambiguous
	// planar fix).
	MinAnchors int
	// ConsistencyRadius enables the intersection consistency check of
	// Section 4.1.2 when positive: anchors whose range circles have no
	// intersection point within this radius of another pair's intersection
	// point are discarded (paper example: 1 m).
	ConsistencyRadius float64
	// Progressive, when true, promotes localized nodes to anchors and
	// iterates, the Section 4.1.1 extension ("Once localized, they become
	// anchor nodes and are used to localize the remaining non-anchors").
	Progressive bool
	// MaxIters bounds the per-node Gauss-Newton refinement iterations.
	MaxIters int
	// UseIntersectionMode estimates positions as the mode (densest
	// cluster centroid) of the range-circle intersection points instead of
	// least squares when enough anchors are available — the paper's §4.1.2
	// alternative ("we may take the mode of the intersection points of the
	// remaining anchors instead of minimizing the error if the number of
	// anchors is large enough"). With fewer than MinModeAnchors anchors the
	// solver falls back to least squares.
	UseIntersectionMode bool
	// MinModeAnchors is the anchor count required before the intersection
	// mode is used (default 4).
	MinModeAnchors int
}

// DefaultMultilatConfig returns the configuration of the paper's
// experiments: 3-anchor minimum, 1 m consistency radius, no progressive
// promotion ("we used the original set of anchors only").
func DefaultMultilatConfig() MultilatConfig {
	return MultilatConfig{
		MinAnchors:        3,
		ConsistencyRadius: 1.0,
		Progressive:       false,
		MaxIters:          100,
		MinModeAnchors:    4,
	}
}

// Validate checks the configuration.
func (c MultilatConfig) Validate() error {
	switch {
	case c.MinAnchors < 3:
		return errors.New("core: MinAnchors must be at least 3")
	case !(c.ConsistencyRadius >= 0) || math.IsInf(c.ConsistencyRadius, 1):
		// A NaN radius would switch the check off silently (NaN > 0 is
		// false).
		return errors.New("core: ConsistencyRadius must be finite and non-negative")
	case c.MaxIters <= 0:
		return errors.New("core: non-positive MaxIters")
	case c.UseIntersectionMode && c.MinModeAnchors < 3:
		return errors.New("core: MinModeAnchors must be at least 3")
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
// measurements to at least MinAnchors anchors, by least squares over
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
// storage — the flattened adjacency, observation and consistency-filter
// buffers, and the linear-seed matrices — borrowed from ws (nil ws
// allocates). The returned result is heap-allocated and safe to retain.
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
			if len(obs) < cfg.MinAnchors {
				continue
			}
			var p geom.Point
			var err error
			if cfg.UseIntersectionMode && len(obs) >= cfg.MinModeAnchors {
				p, err = solveNodeIntersectionMode(w, obs, cfg.ConsistencyRadius)
				if err != nil {
					p, err = solveNode(ws, obs, cfg.MaxIters) // fall back
				}
			} else {
				p, err = solveNode(ws, obs, cfg.MaxIters)
			}
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
			// within is too big to inline; decide the clear cases of its
			// band test here and call it only inside the band.
			dy := py - q.y
			if s := dx*dx + dy*dy; s < near.lo || !(s > near.hi) && near.within(dx, dy) {
				ra[b>>6] |= 1 << (b & 63)
				rows[b*words+(a>>6)] |= 1 << (a & 63)
			}
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

// disk decides whether a separation (dx, dy) is within a radius r, that is
// whether math.Hypot(dx, dy) <= r, mostly without calling Hypot.
type disk struct {
	r, lo, hi float64 // lo, hi = r²(1−1e-6), r²(1+1e-6)
}

func newDisk(r float64) disk {
	r2 := r * r
	if !(r2 >= 0x1p-900 && r2 <= 0x1p900) {
		// r² under- or overflowed, or r is NaN: the band no longer bounds
		// the rounding, so every test goes to Hypot.
		return disk{r: r, lo: math.Inf(-1), hi: math.Inf(1)}
	}
	return disk{r: r, lo: r2 * (1 - 1e-6), hi: r2 * (1 + 1e-6)}
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

// solveNodeIntersectionMode estimates a node's position as the centroid of
// the densest cluster of range-circle intersection points (the paper's
// §4.1.2 "mode of the intersection points" alternative). radius is the
// cluster radius; non-positive values default to 1 m. Working storage comes
// from w.
func solveNodeIntersectionMode(w *mlWorkspace, obs []anchorObs, radius float64) (geom.Point, error) {
	if len(obs) < 3 {
		return geom.Point{}, errors.New("core: intersection mode needs ≥3 anchors")
	}
	if radius <= 0 {
		radius = 1
	}
	pts := intersections(w, obs, radius/2)
	if len(pts) == 0 {
		return geom.Point{}, errors.New("core: intersection mode: no circle intersections")
	}
	w.sweep(pts, radius)
	// Densest point: the first, in pts order, with the most points within
	// radius of it (the popcount of its near row).
	bestIdx, bestCount := 0, -1
	for x := range pts {
		if count := popcount(w.row(x)); count > bestCount {
			bestCount = count
			bestIdx = x
		}
	}
	if bestCount < 3 {
		return geom.Point{}, errors.New("core: intersection mode: no supporting cluster")
	}
	// The centroid sums the points of the densest point's row in pts order.
	best := w.row(bestIdx)
	var c geom.Point
	for x, q := range pts {
		if k := w.rank[x]; best[k>>6]&(1<<(k&63)) != 0 {
			c = c.Add(q.p)
		}
	}
	return c.Scale(1 / float64(bestCount)), nil
}

// solveNode estimates one node's position from anchor observations: a
// linearized least-squares seed followed by Gauss-Newton refinement of the
// nonlinear range objective. The seed's matrices are borrowed from ws (nil
// ws allocates).
func solveNode(ws *scratch.Arena, obs []anchorObs, maxIters int) (geom.Point, error) {
	seed, err := linearSeedIn(ws, obs)
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
	return gaussNewton(obs, seed, maxIters)
}

// linearSeedIn linearizes the circle equations by subtracting the first:
// ‖p−pa‖² − d_a² = ‖p−p0‖² − d_0² reduces to a linear system in (x, y).
// The design matrix, right-hand side, and least-squares intermediates are
// borrowed from ws (nil ws allocates). The rows are written straight into
// the matrix backing — the same values FromRows would have copied.
func linearSeedIn(ws *scratch.Arena, obs []anchorObs) (geom.Point, error) {
	if len(obs) < 3 {
		return geom.Point{}, errors.New("core: linearSeed: need 3 observations")
	}
	ref := obs[0]
	a := mat.NewDenseIn(ws, len(obs)-1, 2)
	rhs := ws.Float64s(len(obs) - 1)
	for k, o := range obs[1:] {
		row := a.RowView(k)
		row[0] = 2 * (o.pos.X - ref.pos.X)
		row[1] = 2 * (o.pos.Y - ref.pos.Y)
		rhs[k] = ref.d*ref.d - o.d*o.d +
			o.pos.NormSq() - ref.pos.NormSq()
	}
	x, err := mat.LeastSquaresIn(ws, a, rhs)
	if err != nil {
		return geom.Point{}, err
	}
	p := geom.Pt(x[0], x[1])
	if !p.IsFinite() {
		return geom.Point{}, errors.New("core: linearSeed: non-finite solution")
	}
	return p, nil
}

// gaussNewton refines the weighted nonlinear range least squares from seed.
func gaussNewton(obs []anchorObs, seed geom.Point, maxIters int) (geom.Point, error) {
	p := seed
	for it := 0; it < maxIters; it++ {
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
