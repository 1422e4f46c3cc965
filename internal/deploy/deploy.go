// Package deploy generates the node layouts of the paper's evaluation:
// the 7×7 offset grid with 9 m / 10 m spacing (Figure 5), the 15-node
// parking-lot deployment (Figure 12), the 59-position "small town" map used
// for the random-deployment simulations (Figures 20–22), and generic uniform
// random deployments for scaling studies.
package deploy

import (
	"errors"
	"fmt"
	"math/rand"

	"resilientloc/internal/geom"
)

// Deployment is a set of node positions plus the indices of anchor nodes
// (nodes that know their own position a priori).
type Deployment struct {
	Name      string
	Positions []geom.Point
	Anchors   []int // indices into Positions; empty for anchor-free schemes
}

// N returns the number of nodes.
func (d *Deployment) N() int { return len(d.Positions) }

// IsAnchor reports whether node i is an anchor.
func (d *Deployment) IsAnchor(i int) bool {
	for _, a := range d.Anchors {
		if a == i {
			return true
		}
	}
	return false
}

// NonAnchors returns the indices of all non-anchor nodes.
func (d *Deployment) NonAnchors() []int {
	out := make([]int, 0, d.N()-len(d.Anchors))
	for i := range d.Positions {
		if !d.IsAnchor(i) {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks structural invariants.
func (d *Deployment) Validate() error {
	if len(d.Positions) == 0 {
		return errors.New("deploy: no positions")
	}
	seen := make(map[int]bool, len(d.Anchors))
	for _, a := range d.Anchors {
		if a < 0 || a >= len(d.Positions) {
			return fmt.Errorf("deploy: anchor index %d out of range", a)
		}
		if seen[a] {
			return fmt.Errorf("deploy: duplicate anchor index %d", a)
		}
		seen[a] = true
	}
	return nil
}

// ChooseRandomAnchors designates k distinct random nodes as anchors,
// replacing any existing anchor set.
func (d *Deployment) ChooseRandomAnchors(k int, rng *rand.Rand) error {
	if k < 0 || k > d.N() {
		return fmt.Errorf("deploy: cannot choose %d anchors from %d nodes", k, d.N())
	}
	perm := rng.Perm(d.N())
	d.Anchors = append([]int(nil), perm[:k]...)
	return nil
}

// OffsetGrid builds the paper's Figure 5 layout: rows 9 m apart vertically;
// nodes 10 m apart within a row; odd rows offset by half the horizontal
// spacing, so nearest neighbors are 9 m and 10 m apart with a minimum
// spacing of 9.14 m used as the soft-constraint dmin in Section 4.2.2
// (offset-row diagonal: sqrt(9² + 5²) ≈ 10.30 m, so the generated grid's
// minimum spacing is its 10 m column spacing; the paper's stated 9.14 m
// minimum corresponds to its exact survey geometry).
func OffsetGrid(rows, cols int, rowSpacing, colSpacing float64) (*Deployment, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("deploy: OffsetGrid: invalid shape %dx%d", rows, cols)
	}
	if rowSpacing <= 0 || colSpacing <= 0 {
		return nil, errors.New("deploy: OffsetGrid: non-positive spacing")
	}
	d := &Deployment{
		Name:      fmt.Sprintf("offset-grid-%dx%d", rows, cols),
		Positions: make([]geom.Point, 0, rows*cols),
	}
	for r := 0; r < rows; r++ {
		xOff := 0.0
		if r%2 == 1 {
			xOff = colSpacing / 2
		}
		for c := 0; c < cols; c++ {
			d.Positions = append(d.Positions, geom.Pt(
				xOff+float64(c)*colSpacing,
				float64(r)*rowSpacing,
			))
		}
	}
	return d, nil
}

// PaperGrid returns the 7×7 offset grid of the paper's main campaign
// (Figure 5): 49 plausible positions over a ~60×54 m area with 9 m row and
// 10 m column spacing. The paper's experiments used 46–47 of the 49
// positions; callers slice as needed.
func PaperGrid() *Deployment {
	d, err := OffsetGrid(7, 7, 9, 10)
	if err != nil {
		panic("deploy: PaperGrid: " + err.Error()) // static parameters; cannot fail
	}
	d.Name = "paper-grid-7x7"
	return d
}

// ParkingLot returns the 15-node, 25×25 m parking-lot deployment of the
// multilateration experiment (Figure 12): 5 anchors along the periphery
// (the only nodes fitted with loudspeakers) and 10 non-anchors inside.
func ParkingLot() *Deployment {
	return &Deployment{
		Name: "parking-lot-15",
		Positions: []geom.Point{
			// Anchors (loudspeaker-equipped), spread around the lot.
			geom.Pt(-8, 1), geom.Pt(12, 2), geom.Pt(2, 21), geom.Pt(-6, 16), geom.Pt(11, 14),
			// Non-anchor nodes.
			geom.Pt(-4, 4), geom.Pt(0, 2), geom.Pt(5, 5), geom.Pt(9, 7),
			geom.Pt(-2, 9), geom.Pt(3, 10), geom.Pt(7, 12), geom.Pt(-5, 12),
			geom.Pt(0, 15), geom.Pt(5, 18),
		},
		Anchors: []int{0, 1, 2, 3, 4},
	}
}

// Town returns 59 plausible node positions over a few blocks of a small
// town, the random-deployment scenario of Figures 20–22: nodes along street
// frontages and around two city blocks. The geometry is scaled so that the
// number of node pairs within the 22 m ranging cutoff matches the paper's
// 945 ("we selected 945 pairs of nodes whose Euclidean distances were less
// than 22m"), which implies a compact ≈60×50 m footprint. 18 of the nodes
// are designated anchors for the multilateration run; LSS ignores anchors.
func Town(rng *rand.Rand) *Deployment {
	d := &Deployment{Name: "town-59"}
	// Street-frontage rows around two blocks, jittered so the layout is
	// plausible rather than gridded. The paper's density (55% of all pairs
	// within 22 m) dictates the ≈6.5 m frontage spacing.
	const sx = 6.5 // frontage spacing, m
	jitter := func(x, y float64) geom.Point {
		return geom.Pt(x+rng.Float64()*2.2-1.1, y+rng.Float64()*2.2-1.1)
	}
	// Block 1 (south): perimeter positions.
	for i := 0; i < 8; i++ {
		d.Positions = append(d.Positions, jitter(float64(i)*sx, 0))
	}
	for i := 0; i < 8; i++ {
		d.Positions = append(d.Positions, jitter(float64(i)*sx, 16))
	}
	d.Positions = append(d.Positions,
		jitter(0, 5.5), jitter(50, 5.5), jitter(0, 11), jitter(50, 11))
	// Block 2 (north): a second block across the street.
	for i := 0; i < 7; i++ {
		d.Positions = append(d.Positions, jitter(float64(i)*7+3, 26))
	}
	for i := 0; i < 7; i++ {
		d.Positions = append(d.Positions, jitter(float64(i)*7+3, 36))
	}
	d.Positions = append(d.Positions, jitter(3, 31), jitter(52, 31))
	// Scattered yard/alley positions filling the interior.
	for len(d.Positions) < 59 {
		d.Positions = append(d.Positions, jitter(4+rng.Float64()*44, 4+rng.Float64()*28))
	}
	d.Positions = d.Positions[:59]
	if err := d.ChooseRandomAnchors(18, rng); err != nil {
		panic("deploy: Town: " + err.Error()) // 18 < 59; cannot fail
	}
	return d
}

// UniformRandom scatters n nodes uniformly over a w×h rectangle with a
// minimum-spacing rejection rule (re-draws any point closer than minSep to
// an accepted one, giving up after a bounded number of attempts).
func UniformRandom(n int, w, h, minSep float64, rng *rand.Rand) (*Deployment, error) {
	if n <= 0 {
		return nil, errors.New("deploy: UniformRandom: need positive n")
	}
	if w <= 0 || h <= 0 {
		return nil, errors.New("deploy: UniformRandom: non-positive area")
	}
	if minSep < 0 {
		return nil, errors.New("deploy: UniformRandom: negative minSep")
	}
	d := &Deployment{Name: fmt.Sprintf("uniform-%d", n)}
	const maxAttempts = 10000
	for len(d.Positions) < n {
		ok := false
		for attempt := 0; attempt < maxAttempts; attempt++ {
			p := geom.Pt(rng.Float64()*w, rng.Float64()*h)
			clear := true
			for _, q := range d.Positions {
				if p.Dist(q) < minSep {
					clear = false
					break
				}
			}
			if clear {
				d.Positions = append(d.Positions, p)
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("deploy: UniformRandom: cannot place %d nodes with %.1fm separation in %.0fx%.0f", n, minSep, w, h)
		}
	}
	return d, nil
}
