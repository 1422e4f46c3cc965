// Package measure defines the distance-measurement data structures shared by
// the ranging service and the localization algorithms: raw repeated directed
// measurements, the statistical filters of paper Section 3.5 (median/mode),
// the bidirectional consistency check, and the synthetic distance generators the paper uses to augment sparse field data
// (Figures 15/16 and 25) and to drive the random-deployment simulations
// (Figures 20–22).
package measure

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sort"

	"resilientloc/internal/deploy"
	"resilientloc/internal/scratch"
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
//
// The measurements live in one insertion-ordered slice. While every Add has
// arrived in strictly ascending pair order (Lo, then Hi), as Generate and
// the other builders that loop i < j add them, the slice is sorted and Get
// binary-searches it. The first Add out of that order builds a
// position index, which the set keeps from then on. Reads never write, so
// a Set is safe to read from many goroutines.
type Set struct {
	n   int
	ms  []Measurement
	pos map[Pair]int // ms index of each pair; nil while ms is sorted by pair
}

// NewSet creates an empty measurement set over n nodes (indices 0..n-1).
func NewSet(n int) (*Set, error) {
	if n <= 0 {
		return nil, errors.New("measure: NewSet: need positive node count")
	}
	return &Set{n: n}, nil
}

// setPool is the package's stashed workspace in a scratch arena: a cursor
// over reusable Sets, each keeping the measurement capacity it grew to.
// Release rewinds the cursor via scratch.Resetter.
type setPool struct {
	items []*Set
	used  int
}

// Reset rewinds the cursor; the next trial's sets reuse the same Sets.
func (p *setPool) Reset() { p.used = 0 }

// NewSetIn is NewSet with the set borrowed from ws (nil ws allocates): it
// is empty, unindexed and distinct from every other set ws handed out since
// its last Release, and it is valid only until that arena's next Release.
func NewSetIn(ws *scratch.Arena, n int) (*Set, error) {
	if ws == nil || n <= 0 {
		return NewSet(n)
	}
	p := ws.Stash("measure.setPool", func() any { return &setPool{} }).(*setPool)
	if p.used == len(p.items) {
		p.items = append(p.items, &Set{})
	}
	s := p.items[p.used]
	p.used++
	s.n, s.ms, s.pos = n, s.ms[:0], nil
	return s, nil
}

// N returns the number of nodes the set spans.
func (s *Set) N() int { return s.n }

// Len returns the number of measured pairs.
func (s *Set) Len() int { return len(s.ms) }

// pairLess orders pairs by Lo, then Hi.
func pairLess(a, b Pair) bool {
	return a.Lo < b.Lo || a.Lo == b.Lo && a.Hi < b.Hi
}

// find returns the index in ms of pair p and whether p is present.
func (s *Set) find(p Pair) (int, bool) {
	if s.pos != nil {
		k, ok := s.pos[p]
		return k, ok
	}
	k := sort.Search(len(s.ms), func(k int) bool { return !pairLess(s.ms[k].Pair, p) })
	return k, k < len(s.ms) && s.ms[k].Pair == p
}

// index rebuilds the position index from ms.
func (s *Set) index() {
	s.pos = make(map[Pair]int, len(s.ms)+1)
	for k, m := range s.ms {
		s.pos[m.Pair] = k
	}
}

// Add inserts or replaces the measurement for pair (i, j). A non-positive
// weight is promoted to 1; a NaN or infinite distance or weight is an error.
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
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("measure: Add: invalid weight %v", weight)
	}
	if weight <= 0 {
		weight = 1
	}
	m := Measurement{Pair: MkPair(i, j), Distance: distance, Weight: weight}
	if s.pos == nil && (len(s.ms) == 0 || pairLess(s.ms[len(s.ms)-1].Pair, m.Pair)) {
		s.ms = append(s.ms, m)
		return nil
	}
	if k, ok := s.find(m.Pair); ok {
		s.ms[k] = m
		return nil
	}
	if s.pos == nil {
		s.index()
	}
	s.pos[m.Pair] = len(s.ms)
	s.ms = append(s.ms, m)
	return nil
}

// Get returns the measurement for (i, j) and whether it exists.
func (s *Set) Get(i, j int) (Measurement, bool) {
	if k, ok := s.find(MkPair(i, j)); ok {
		return s.ms[k], true
	}
	return Measurement{}, false
}

// All returns a copy of every measurement, in insertion order, that the
// caller owns.
func (s *Set) All() []Measurement {
	return append(make([]Measurement, 0, len(s.ms)), s.ms...)
}

// Measurements yields every measurement in insertion order without copying
// them. The set must not change while the sequence is iterated.
func (s *Set) Measurements() iter.Seq[Measurement] {
	return func(yield func(Measurement) bool) {
		for _, m := range s.ms {
			if !yield(m) {
				return
			}
		}
	}
}

// Neighbors returns the nodes with a measurement to i, ascending.
func (s *Set) Neighbors(i int) []int {
	var out []int
	for _, m := range s.ms {
		switch i {
		case m.Pair.Lo:
			out = append(out, m.Pair.Hi)
		case m.Pair.Hi:
			out = append(out, m.Pair.Lo)
		}
	}
	sort.Ints(out)
	return out
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
	for _, m := range s.ms {
		if a, b := find(m.Pair.Lo), find(m.Pair.Hi); a != b {
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
	out := make([]float64, 0, len(s.ms))
	for _, m := range s.ms {
		truth := dep.Positions[m.Pair.Lo].Dist(dep.Positions[m.Pair.Hi])
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

// GaussianNoise is the paper's simulated-distance noise: N(0, 0.33 m).
const GaussianNoise = 0.33

// Errors of Generate's and Augment's inputs, returned before any draw.
var (
	// ErrMaxRange rejects a NaN or negative maxRange; +Inf admits every
	// pair.
	ErrMaxRange = errors.New("measure: maxRange is NaN or negative")
	// ErrSigma rejects a NaN, infinite or negative noise sigma; zero adds no
	// noise.
	ErrSigma = errors.New("measure: sigma is NaN, infinite or negative")
	// ErrCount rejects a negative Augment count; zero adds nothing.
	ErrCount = errors.New("measure: Augment: count is negative")
)

// checkNoise validates the maxRange and sigma shared by Generate and
// Augment.
func checkNoise(maxRange, sigma float64) error {
	if !(maxRange >= 0) {
		return fmt.Errorf("%w, got %v", ErrMaxRange, maxRange)
	}
	if !(sigma >= 0) || math.IsInf(sigma, 1) {
		return fmt.Errorf("%w, got %v", ErrSigma, sigma)
	}
	return nil
}

// farSquare returns the dx²+dy² above which a pair lies beyond maxRange
// without a math.Hypot call: maxRange²·(1+1e-6). Rounding moves dx²+dy² and
// Hypot by a few ulps, far less than that margin, and a square that
// overflows to +Inf belongs to a pair farther apart than any maxRange the
// margin is used for. The margin applies only while maxRange² lies in
// [2⁻⁹⁰⁰, 2⁹⁰⁰], where it cannot under- or overflow; otherwise it is +Inf,
// and for every pair inside it or with a NaN square Hypot decides.
func farSquare(maxRange float64) float64 {
	if r2 := maxRange * maxRange; r2 >= 0x1p-900 && r2 <= 0x1p900 {
		return r2 * (1 + 1e-6)
	}
	return math.Inf(1)
}

// Generate creates a measurement set for a deployment: every pair closer
// than maxRange gets the true distance perturbed by N(0, sigma), the exact
// procedure of Figures 15 and 20 ("perturbed the distances with errors from
// a Gaussian distribution N(µ=0; σ=0.33m)" with a 22 m cutoff). Pairs are
// added in ascending order and draw their noise in that order. A NaN or
// negative maxRange fails with ErrMaxRange, a NaN, infinite or negative
// sigma with ErrSigma. Pairs beyond farSquare skip math.Hypot; they never
// drew noise, so the random stream is the same.
func Generate(dep *deploy.Deployment, maxRange, sigma float64, rng *rand.Rand) (*Set, error) {
	return GenerateIn(nil, dep, maxRange, sigma, rng)
}

// GenerateIn is Generate with the set borrowed from ws through NewSetIn
// (nil ws allocates). The set is valid only until ws's next Release.
func GenerateIn(ws *scratch.Arena, dep *deploy.Deployment, maxRange, sigma float64, rng *rand.Rand) (*Set, error) {
	if err := checkNoise(maxRange, sigma); err != nil {
		return nil, err
	}
	s, err := NewSetIn(ws, dep.N())
	if err != nil {
		return nil, err
	}
	far := farSquare(maxRange)
	for i := 0; i < dep.N(); i++ {
		p := dep.Positions[i]
		for j := i + 1; j < dep.N(); j++ {
			q := dep.Positions[j]
			dx, dy := p.X-q.X, p.Y-q.Y
			if dx*dx+dy*dy > far {
				continue
			}
			d := math.Hypot(dx, dy)
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
// pairs) and 25. It returns the number of pairs actually added. Before any
// draw or change to s, a NaN or negative maxRange fails with ErrMaxRange, a
// NaN, infinite or negative sigma with ErrSigma and a negative count with
// ErrCount. Like Generate, it skips Hypot for pairs beyond farSquare.
func Augment(s *Set, dep *deploy.Deployment, maxRange, sigma float64, count int, rng *rand.Rand) (int, error) {
	if dep.N() != s.n {
		return 0, fmt.Errorf("measure: Augment: deployment has %d nodes, set has %d", dep.N(), s.n)
	}
	if err := checkNoise(maxRange, sigma); err != nil {
		return 0, err
	}
	if count < 0 {
		return 0, fmt.Errorf("%w, got %d", ErrCount, count)
	}
	far := farSquare(maxRange)
	var missing []Pair
	for i := 0; i < dep.N(); i++ {
		p := dep.Positions[i]
		for j := i + 1; j < dep.N(); j++ {
			q := dep.Positions[j]
			dx, dy := p.X-q.X, p.Y-q.Y
			if dx*dx+dy*dy > far || math.Hypot(dx, dy) > maxRange {
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
	// Drop, in one pass, the measurements a shuffle of their positions puts
	// past keep.
	order := make([]int, s.Len())
	for k := range order {
		order[k] = k
	}
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	drop := make([]bool, len(order))
	for _, k := range order[keep:] {
		drop[k] = true
	}
	out := s.ms[:0]
	for k, m := range s.ms {
		if !drop[k] {
			out = append(out, m)
		}
	}
	s.ms = out
	if s.pos != nil {
		s.index()
	}
}
