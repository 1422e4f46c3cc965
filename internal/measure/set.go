// Package measure defines the distance-measurement data structures shared by
// the ranging service and the localization algorithms: raw repeated directed
// measurements, the statistical filters of paper Section 3.5 (median/mode),
// the bidirectional and triangle-inequality consistency checks, and the
// synthetic distance generators the paper uses to augment sparse field data
// (Figures 15/16 and 25) and to drive the random-deployment simulations
// (Figures 20–22).
package measure

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"resilientloc/internal/deploy"
	"resilientloc/internal/stats"
)

// Pair is an unordered node pair, stored with Lo < Hi.
type Pair struct {
	Lo, Hi int
}

// MkPair normalizes (i, j) into a Pair. It panics when i == j, which always
// indicates a programming error (self-ranging is meaningless).
func MkPair(i, j int) Pair {
	switch {
	case i == j:
		panic(fmt.Sprintf("measure: self-pair (%d,%d)", i, j))
	case i < j:
		return Pair{Lo: i, Hi: j}
	default:
		return Pair{Lo: j, Hi: i}
	}
}

// Measurement is one undirected filtered distance estimate.
type Measurement struct {
	Pair     Pair
	Distance float64 // meters
	Weight   float64 // confidence weight for LSS (wij); 1 by default
}

// Set is an undirected sparse collection of distance measurements, the input
// to every localization algorithm.
type Set struct {
	n  int
	m  map[Pair]Measurement
	ks []Pair // insertion-ordered keys for deterministic iteration
}

// NewSet creates an empty measurement set over n nodes (indices 0..n-1).
func NewSet(n int) (*Set, error) {
	if n <= 0 {
		return nil, errors.New("measure: NewSet: need positive node count")
	}
	return &Set{n: n, m: make(map[Pair]Measurement)}, nil
}

// N returns the number of nodes the set spans.
func (s *Set) N() int { return s.n }

// Len returns the number of measured pairs.
func (s *Set) Len() int { return len(s.m) }

// Add inserts or replaces the measurement for pair (i, j). A non-positive
// weight is promoted to 1.
func (s *Set) Add(i, j int, distance, weight float64) error {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		return fmt.Errorf("measure: Add: node index out of range (%d,%d) with n=%d", i, j, s.n)
	}
	if i == j {
		return fmt.Errorf("measure: Add: self-pair %d", i)
	}
	if distance <= 0 || math.IsNaN(distance) || math.IsInf(distance, 0) {
		return fmt.Errorf("measure: Add: invalid distance %v", distance)
	}
	if weight <= 0 {
		weight = 1
	}
	p := MkPair(i, j)
	if _, exists := s.m[p]; !exists {
		s.ks = append(s.ks, p)
	}
	s.m[p] = Measurement{Pair: p, Distance: distance, Weight: weight}
	return nil
}

// Get returns the measurement for (i, j) and whether it exists.
func (s *Set) Get(i, j int) (Measurement, bool) {
	m, ok := s.m[MkPair(i, j)]
	return m, ok
}

// Remove deletes the measurement for (i, j) if present.
func (s *Set) Remove(i, j int) {
	p := MkPair(i, j)
	if _, ok := s.m[p]; !ok {
		return
	}
	delete(s.m, p)
	for k, q := range s.ks {
		if q == p {
			s.ks = append(s.ks[:k], s.ks[k+1:]...)
			break
		}
	}
}

// All returns every measurement in insertion order.
func (s *Set) All() []Measurement {
	out := make([]Measurement, 0, len(s.m))
	for _, p := range s.ks {
		out = append(out, s.m[p])
	}
	return out
}

// Neighbors returns the nodes with a measurement to i, ascending.
func (s *Set) Neighbors(i int) []int {
	var out []int
	for _, p := range s.ks {
		switch i {
		case p.Lo:
			out = append(out, p.Hi)
		case p.Hi:
			out = append(out, p.Lo)
		}
	}
	sort.Ints(out)
	return out
}

// AvgDegree returns the mean node degree — the paper reports e.g. "the
// average number of anchors per node was 1.47" from this kind of statistic.
func (s *Set) AvgDegree() float64 {
	if s.n == 0 {
		return 0
	}
	return 2 * float64(len(s.m)) / float64(s.n)
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, m: make(map[Pair]Measurement, len(s.m)), ks: append([]Pair(nil), s.ks...)}
	for k, v := range s.m {
		c.m[k] = v
	}
	return c
}

// Connected reports whether the measurement graph is connected over all n
// nodes (isolated nodes make it disconnected). It merges the endpoints of
// every measured pair with union-find, whose one table is its only
// allocation.
func (s *Set) Connected() bool {
	if s.n == 0 {
		return true
	}
	root := make([]int, s.n)
	for i := range root {
		root[i] = i
	}
	find := func(v int) int {
		for root[v] != v {
			root[v] = root[root[v]] // path halving
			v = root[v]
		}
		return v
	}
	components := s.n
	for _, p := range s.ks {
		if a, b := find(p.Lo), find(p.Hi); a != b {
			root[a] = b
			components--
		}
	}
	return components == 1
}

// Errors returns the signed measurement errors (measured − true) for a
// deployment with known ground-truth positions.
func (s *Set) Errors(dep *deploy.Deployment) ([]float64, error) {
	if dep.N() != s.n {
		return nil, fmt.Errorf("measure: Errors: deployment has %d nodes, set has %d", dep.N(), s.n)
	}
	out := make([]float64, 0, len(s.m))
	for _, p := range s.ks {
		m := s.m[p]
		truth := dep.Positions[p.Lo].Dist(dep.Positions[p.Hi])
		out = append(out, m.Distance-truth)
	}
	return out, nil
}

// Raw is a collection of repeated *directed* distance measurements, as
// produced by the ranging service before filtering: readings[i][j] holds all
// raw estimates of the i→j distance.
type Raw struct {
	n        int
	readings map[[2]int][]float64
	keys     [][2]int
}

// NewRaw creates an empty raw collection over n nodes.
func NewRaw(n int) (*Raw, error) {
	if n <= 0 {
		return nil, errors.New("measure: NewRaw: need positive node count")
	}
	return &Raw{n: n, readings: make(map[[2]int][]float64)}, nil
}

// N returns the number of nodes the collection spans.
func (r *Raw) N() int { return r.n }

// Add appends one raw directed reading from src to dst.
func (r *Raw) Add(src, dst int, distance float64) error {
	if src < 0 || src >= r.n || dst < 0 || dst >= r.n {
		return fmt.Errorf("measure: Raw.Add: node index out of range (%d,%d)", src, dst)
	}
	if src == dst {
		return fmt.Errorf("measure: Raw.Add: self-pair %d", src)
	}
	if distance <= 0 || math.IsNaN(distance) || math.IsInf(distance, 0) {
		return fmt.Errorf("measure: Raw.Add: invalid distance %v", distance)
	}
	k := [2]int{src, dst}
	if _, ok := r.readings[k]; !ok {
		r.keys = append(r.keys, k)
	}
	r.readings[k] = append(r.readings[k], distance)
	return nil
}

// Readings returns the raw readings for the directed pair (src, dst).
func (r *Raw) Readings(src, dst int) []float64 {
	return r.readings[[2]int{src, dst}]
}

// DirectedPairs returns all directed pairs with at least one reading, in
// insertion order.
func (r *Raw) DirectedPairs() [][2]int { return append([][2]int(nil), r.keys...) }

// SignedErrors returns the measured-minus-true error of every directed raw
// reading against the deployment's ground-truth positions, in DirectedPairs
// order. This is the single error-extraction path shared by the figure
// reproductions and the scenario library.
func (r *Raw) SignedErrors(dep *deploy.Deployment) []float64 {
	var errs []float64
	for _, k := range r.DirectedPairs() {
		truth := dep.Positions[k[0]].Dist(dep.Positions[k[1]])
		for _, d := range r.Readings(k[0], k[1]) {
			errs = append(errs, d-truth)
		}
	}
	return errs
}

// TotalReadings returns the total number of raw readings stored.
func (r *Raw) TotalReadings() int {
	t := 0
	for _, v := range r.readings {
		t += len(v)
	}
	return t
}

// FilterKind selects the statistical filter applied to repeated readings.
type FilterKind int

// Statistical filters per paper Section 3.5: the median for small sample
// counts, the mode (densest cluster) when enough measurements are available.
const (
	FilterMedian FilterKind = iota + 1
	FilterMode
)

// ModeBinWidth is the cluster width used by the mode filter, meters.
const ModeBinWidth = 0.5

// Filter reduces repeated directed readings to one estimate per direction.
// The mode filter falls back to the median when fewer than minModeSamples
// readings are available ("it needs more measurements to be effective").
func (r *Raw) Filter(kind FilterKind, minModeSamples int) map[[2]int]float64 {
	out := make(map[[2]int]float64, len(r.readings))
	for _, k := range r.keys {
		v := r.readings[k]
		var est float64
		if kind == FilterMode && len(v) >= minModeSamples {
			est, _ = stats.Mode(v, ModeBinWidth)
		} else {
			est, _ = stats.Median(v)
		}
		out[k] = est
	}
	return out
}

// MergeOptions controls how directed estimates merge into an undirected Set.
type MergeOptions struct {
	// BidirTolerance is the maximum |d(i→j) − d(j→i)| for a bidirectional
	// pair to be considered consistent, meters.
	BidirTolerance float64
	// RequireBidirectional drops pairs measured in only one direction when
	// true (Figure 7's "bidirectional measurements only"); otherwise
	// unidirectional estimates are retained with reduced weight, which the
	// paper recommends when data is scarce.
	RequireBidirectional bool
	// UnidirectionalWeight is the LSS weight assigned to unidirectional
	// pairs when they are retained (bidirectional-consistent pairs get 1).
	UnidirectionalWeight float64
}

// DefaultMergeOptions returns the merge policy used by the refined ranging
// service: 1 m bidirectional tolerance, unidirectional pairs kept at half
// weight.
func DefaultMergeOptions() MergeOptions {
	return MergeOptions{BidirTolerance: 1.0, RequireBidirectional: false, UnidirectionalWeight: 0.5}
}

// Merge combines directed estimates into an undirected Set, applying the
// bidirectional consistency check of Section 3.5: pairs measured in both
// directions are kept (averaged) only when the two directions agree within
// BidirTolerance; disagreeing pairs are discarded entirely.
func Merge(n int, directed map[[2]int]float64, opt MergeOptions) (*Set, error) {
	s, err := NewSet(n)
	if err != nil {
		return nil, err
	}
	uniWeight := opt.UnidirectionalWeight
	if uniWeight <= 0 {
		uniWeight = 0.5
	}
	done := make(map[Pair]bool)
	// Deterministic iteration: sort the directed keys.
	keys := make([][2]int, 0, len(directed))
	for k := range directed {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		p := MkPair(k[0], k[1])
		if done[p] {
			continue
		}
		done[p] = true
		fwd, fok := directed[[2]int{p.Lo, p.Hi}]
		rev, rok := directed[[2]int{p.Hi, p.Lo}]
		switch {
		case fok && rok:
			if math.Abs(fwd-rev) <= opt.BidirTolerance {
				if err := s.Add(p.Lo, p.Hi, (fwd+rev)/2, 1); err != nil {
					return nil, err
				}
			}
			// Inconsistent bidirectional pair: discarded.
		case fok || rok:
			if opt.RequireBidirectional {
				continue
			}
			d := fwd
			if rok {
				d = rev
			}
			if err := s.Add(p.Lo, p.Hi, d, uniWeight); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// triangleCheck removes measurements that violate the triangle inequality
// with slack (paper §3.5: "If three nodes have measurements to each other,
// we use the triangle inequality to identify inconsistent one"). For every
// measured triangle where one side exceeds the sum of the other two plus
// slack, the longest side is removed — the paper notes no check can identify
// the incorrect measurement with certainty; dropping the longest is the
// conservative choice against late-detection overestimates. It returns the
// number of measurements removed. No figure or scenario applies the check
// yet, so it is unexported until one does.
func triangleCheck(s *Set, slack float64) int {
	removed := 0
	// Iterate until fixpoint: removing one side can re-validate others.
	for {
		type viol struct {
			p      Pair
			excess float64
		}
		var worst *viol
		// Find the worst violation over all measured triangles.
		for _, mi := range s.All() {
			a, b := mi.Pair.Lo, mi.Pair.Hi
			for c := 0; c < s.n; c++ {
				if c == a || c == b {
					continue
				}
				mac, ok1 := s.Get(a, c)
				mbc, ok2 := s.Get(b, c)
				if !ok1 || !ok2 {
					continue
				}
				// Longest side of the triangle and its excess.
				sides := []Measurement{mi, mac, mbc}
				sort.Slice(sides, func(x, y int) bool { return sides[x].Distance > sides[y].Distance })
				excess := sides[0].Distance - (sides[1].Distance + sides[2].Distance) - slack
				if excess > 0 && (worst == nil || excess > worst.excess) {
					worst = &viol{p: sides[0].Pair, excess: excess}
				}
			}
		}
		if worst == nil {
			return removed
		}
		s.Remove(worst.p.Lo, worst.p.Hi)
		removed++
	}
}

// GaussianNoise is the paper's simulated-distance noise: N(0, 0.33 m).
const GaussianNoise = 0.33

// Generate creates a measurement set for a deployment: every pair closer
// than maxRange gets the true distance perturbed by N(0, sigma), the exact
// procedure of Figures 15 and 20 ("perturbed the distances with errors from
// a Gaussian distribution N(µ=0; σ=0.33m)" with a 22 m cutoff).
func Generate(dep *deploy.Deployment, maxRange, sigma float64, rng *rand.Rand) (*Set, error) {
	s, err := NewSet(dep.N())
	if err != nil {
		return nil, err
	}
	for i := 0; i < dep.N(); i++ {
		for j := i + 1; j < dep.N(); j++ {
			d := dep.Positions[i].Dist(dep.Positions[j])
			if d > maxRange {
				continue
			}
			meas := d + rng.NormFloat64()*sigma
			if meas <= 0.01 {
				meas = 0.01
			}
			if err := s.Add(i, j, meas, 1); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Augment adds up to count simulated measurements for pairs closer than
// maxRange that are missing from s, perturbing true distances by N(0,
// sigma) — the paper's augmentation procedure for Figures 15/16 (370 added
// pairs) and 25. It returns the number of pairs actually added.
func Augment(s *Set, dep *deploy.Deployment, maxRange, sigma float64, count int, rng *rand.Rand) (int, error) {
	if dep.N() != s.n {
		return 0, fmt.Errorf("measure: Augment: deployment has %d nodes, set has %d", dep.N(), s.n)
	}
	var missing []Pair
	for i := 0; i < dep.N(); i++ {
		for j := i + 1; j < dep.N(); j++ {
			if dep.Positions[i].Dist(dep.Positions[j]) > maxRange {
				continue
			}
			if _, ok := s.Get(i, j); !ok {
				missing = append(missing, MkPair(i, j))
			}
		}
	}
	rng.Shuffle(len(missing), func(a, b int) { missing[a], missing[b] = missing[b], missing[a] })
	if count > len(missing) {
		count = len(missing)
	}
	for _, p := range missing[:count] {
		d := dep.Positions[p.Lo].Dist(dep.Positions[p.Hi])
		meas := d + rng.NormFloat64()*sigma
		if meas <= 0.01 {
			meas = 0.01
		}
		if err := s.Add(p.Lo, p.Hi, meas, 1); err != nil {
			return 0, err
		}
	}
	return count, nil
}

// Sparsify randomly retains exactly keep measurements (or all, if fewer),
// used to reproduce the paper's sparse field datasets at a target pair
// count (e.g. 247 pairs over 47 nodes in Figure 24).
func Sparsify(s *Set, keep int, rng *rand.Rand) {
	if keep >= s.Len() {
		return
	}
	pairs := append([]Pair(nil), s.ks...)
	rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	for _, p := range pairs[keep:] {
		s.Remove(p.Lo, p.Hi)
	}
}
