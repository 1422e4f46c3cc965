package deploy

import (
	"math"
	"math/rand"
	"testing"
)

// minSpacing returns the smallest pairwise distance in d, the quantity the
// LSS soft constraint relies on, or 0 for fewer than two nodes.
func minSpacing(d *Deployment) float64 {
	if d.N() < 2 {
		return 0
	}
	best := d.Positions[0].Dist(d.Positions[1])
	for i := 0; i < d.N(); i++ {
		for j := i + 1; j < d.N(); j++ {
			if dist := d.Positions[i].Dist(d.Positions[j]); dist < best {
				best = dist
			}
		}
	}
	return best
}

func TestOffsetGridShape(t *testing.T) {
	d, err := OffsetGrid(7, 7, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 49 {
		t.Fatalf("N = %d, want 49", d.N())
	}
	// Row 0 node 0 at origin; row 1 offset by 5 in x, 9 in y.
	if d.Positions[0].X != 0 || d.Positions[0].Y != 0 {
		t.Errorf("node 0 at %v, want origin", d.Positions[0])
	}
	if d.Positions[7].X != 5 || d.Positions[7].Y != 9 {
		t.Errorf("node 7 at %v, want (5,9)", d.Positions[7])
	}
}

func TestOffsetGridErrors(t *testing.T) {
	if _, err := OffsetGrid(0, 7, 9, 10); err == nil {
		t.Error("want error for zero rows")
	}
	if _, err := OffsetGrid(7, 7, 0, 10); err == nil {
		t.Error("want error for zero spacing")
	}
}

func TestPaperGridNearestNeighborSpacing(t *testing.T) {
	d := PaperGrid()
	// Figure 5: nearest neighbors are 9 m and 10 m apart. The offset-grid
	// minimum spacing must be between 9 and 10.3 m.
	minSep := minSpacing(d)
	if minSep < 9 || minSep > 10.3 {
		t.Errorf("min spacing = %v, want in [9, 10.3]", minSep)
	}
	// Area ≈ 60×54 m (Figure 5 axes run to ~60 m).
	var maxX, maxY float64
	for _, p := range d.Positions {
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	if maxX < 55 || maxX > 70 || maxY < 50 || maxY > 60 {
		t.Errorf("grid extent (%v, %v) outside Figure 5's ~60x54 m", maxX, maxY)
	}
}

func TestDeploymentValidate(t *testing.T) {
	d := PaperGrid()
	if err := d.Validate(); err != nil {
		t.Errorf("valid deployment rejected: %v", err)
	}
	d.Anchors = []int{0, 0}
	if err := d.Validate(); err == nil {
		t.Error("want error for duplicate anchors")
	}
	d.Anchors = []int{99}
	if err := d.Validate(); err == nil {
		t.Error("want error for out-of-range anchor")
	}
	empty := &Deployment{}
	if err := empty.Validate(); err == nil {
		t.Error("want error for empty deployment")
	}
}

func TestChooseRandomAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := PaperGrid()
	if err := d.ChooseRandomAnchors(13, rng); err != nil {
		t.Fatal(err)
	}
	if len(d.Anchors) != 13 {
		t.Fatalf("got %d anchors, want 13", len(d.Anchors))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.NonAnchors()) != 36 {
		t.Errorf("non-anchors = %d, want 36", len(d.NonAnchors()))
	}
	for _, a := range d.Anchors {
		if !d.IsAnchor(a) {
			t.Errorf("IsAnchor(%d) = false for anchor", a)
		}
	}
	if err := d.ChooseRandomAnchors(100, rng); err == nil {
		t.Error("want error for too many anchors")
	}
}

func TestParkingLot(t *testing.T) {
	d := ParkingLot()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.N() != 15 {
		t.Errorf("N = %d, want 15", d.N())
	}
	if len(d.Anchors) != 5 {
		t.Errorf("anchors = %d, want 5", len(d.Anchors))
	}
	// All nodes within a ~25x25 m footprint.
	for i, p := range d.Positions {
		if p.X < -10 || p.X > 15 || p.Y < 0 || p.Y > 22 {
			t.Errorf("node %d at %v outside the lot", i, p)
		}
	}
}

func TestTown(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := Town(rng)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.N() != 59 {
		t.Errorf("N = %d, want 59", d.N())
	}
	if len(d.Anchors) != 18 {
		t.Errorf("anchors = %d, want 18", len(d.Anchors))
	}
	// Determinism: the same seed reproduces the same layout.
	d2 := Town(rand.New(rand.NewSource(5)))
	for i := range d.Positions {
		if d.Positions[i] != d2.Positions[i] {
			t.Fatalf("node %d differs across same-seed runs", i)
		}
	}
}

func TestUniformRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, err := UniformRandom(50, 100, 100, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 50 {
		t.Fatalf("N = %d, want 50", d.N())
	}
	if minSep := minSpacing(d); minSep < 5 {
		t.Errorf("min spacing = %v, want ≥5", minSep)
	}
	for _, p := range d.Positions {
		if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 100 {
			t.Errorf("node at %v outside area", p)
		}
	}
}

func TestUniformRandomErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if _, err := UniformRandom(0, 10, 10, 0, rng); err == nil {
		t.Error("want error for n=0")
	}
	if _, err := UniformRandom(5, 0, 10, 0, rng); err == nil {
		t.Error("want error for zero area")
	}
	if _, err := UniformRandom(5, 10, 10, -1, rng); err == nil {
		t.Error("want error for negative minSep")
	}
	// Impossible packing: 100 nodes with 50 m separation in 10x10.
	if _, err := UniformRandom(100, 10, 10, 50, rng); err == nil {
		t.Error("want error for impossible packing")
	}
}

func TestMinSpacingDegenerate(t *testing.T) {
	d := &Deployment{Positions: PaperGrid().Positions[:1]}
	if minSpacing(d) != 0 {
		t.Error("single-node min spacing should be 0")
	}
}
