package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/network"
	"resilientloc/internal/radio"
)

// DistributedConfig parameterizes the distributed LSS algorithm of Section
// 4.3: local localization, pairwise coordinate-system transforms, and
// flooding alignment.
type DistributedConfig struct {
	// Root is the node whose local frame becomes the global frame (the
	// paper's Figure 24 uses the node at (27, 36)).
	Root int
	// Local is the LSS configuration for per-node local maps. Restarts and
	// MaxIters should be modest: local problems are tiny.
	Local LSSConfig
	// MinShared is the minimum number of shared neighbors required to
	// compute the transform between two nodes' local frames. It must be at
	// least 3: two shared points cannot disambiguate the reflection factor.
	MinShared int
	// Link models message loss during the data exchanges and the alignment
	// flood.
	Link radio.LinkModel
}

// DefaultDistributedConfig returns the configuration used by the Figure
// 24/25 experiments.
func DefaultDistributedConfig(root int, dmin float64) DistributedConfig {
	local := DefaultLSSConfig(dmin)
	local.MaxIters = 600
	local.Restarts = 6
	return DistributedConfig{
		Root:      root,
		Local:     local,
		MinShared: 3,
	}
}

// Validate checks the configuration.
func (c DistributedConfig) Validate() error {
	if c.Root < 0 {
		return errors.New("core: negative Root")
	}
	if c.MinShared < 3 {
		return errors.New("core: MinShared must be at least 3 (reflection ambiguity)")
	}
	if err := c.Local.Validate(); err != nil {
		return err
	}
	return c.Link.Validate()
}

// DistributedResult is the output of the distributed algorithm.
type DistributedResult struct {
	// Positions maps node → estimated position in the root's local frame.
	// Nodes that never aligned (no local map, no usable transform chain, or
	// lost flood messages) are absent.
	Positions map[int]geom.Point
	// Localized lists the aligned nodes, ascending.
	Localized []int
	// LocalMapSizes records, per node, how many nodes its local map placed
	// (diagnostic for sparse neighborhoods).
	LocalMapSizes map[int]int
	// Transforms counts the node pairs for which a frame transform could be
	// computed.
	Transforms int
	// MessagesSent is the total transmissions attempted on the simulated
	// network (two local exchanges plus the alignment flood).
	MessagesSent int
}

// alignPayload is what the flood carries: the global frame (origin and axis
// vectors) expressed in the *sender's* local coordinate system, per the
// paper's alignment step.
type alignPayload struct {
	origin geom.Point
	ex     geom.Point
	ey     geom.Point
}

// SolveDistributed runs the three-step distributed LSS algorithm over a
// measurement set. The rng drives local-solver seeding and link loss.
func SolveDistributed(set *measure.Set, cfg DistributedConfig, rng *rand.Rand) (*DistributedResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: SolveDistributed: %w", err)
	}
	if rng == nil {
		return nil, errors.New("core: SolveDistributed: nil rng")
	}
	n := set.N()
	if cfg.Root >= n {
		return nil, fmt.Errorf("core: SolveDistributed: root %d out of range (n=%d)", cfg.Root, n)
	}

	// The communication topology is the ranging graph: nodes exchange data
	// with the neighbors they have distance measurements to.
	var edges [][2]int
	for m := range set.Measurements() {
		edges = append(edges, [2]int{m.Pair.Lo, m.Pair.Hi})
	}
	nw, err := network.New(n, edges, cfg.Link, rng)
	if err != nil {
		return nil, err
	}

	// Step 0 (first local exchange): each node broadcasts its measurement
	// list so neighbors know the distances among their shared neighborhood.
	// In this simulation the set is global, so the exchange only costs
	// messages; lost messages are modeled at the map/transform level by the
	// second exchange below.
	network.LocalExchange(nw, func(i int) struct{} { return struct{}{} })

	// Step 1: local localization. Each node solves LSS over itself and its
	// neighbors.
	localMaps := make(map[int]map[int]geom.Point, n)
	for i := 0; i < n; i++ {
		m := solveLocalMap(set, i, cfg.Local, rng)
		if m != nil {
			localMaps[i] = m
		}
	}

	// Second local exchange: nodes broadcast their local maps. A lost
	// message means the receiver cannot compute a transform for that edge.
	heard := network.LocalExchange(nw, func(i int) map[int]geom.Point { return localMaps[i] })

	// Step 2: pairwise transforms. For each topology edge (i, j) compute
	// T(j→i): the transform from j's local frame into i's, via shared
	// neighbors present in both maps.
	type edgeKey struct{ from, to int }
	transforms := make(map[edgeKey]geom.Transform)
	for i := 0; i < n; i++ {
		mi := localMaps[i]
		if mi == nil {
			continue
		}
		for j, mj := range heard[i] {
			if mj == nil {
				continue
			}
			t, ok := fitFrames(mj, mi, cfg.MinShared)
			if !ok {
				continue
			}
			transforms[edgeKey{from: j, to: i}] = t
		}
	}

	res := &DistributedResult{
		Positions:     make(map[int]geom.Point),
		LocalMapSizes: make(map[int]int, len(localMaps)),
		Transforms:    len(transforms),
	}
	for i, m := range localMaps {
		res.LocalMapSizes[i] = len(m)
	}

	// Step 3: alignment flood from the root. The payload is the global
	// frame (origin + axes) expressed in the sender's local frame; each
	// receiver re-expresses it in its own frame via the pairwise transform,
	// computes its own global position, and forwards.
	if localMaps[cfg.Root] == nil {
		return res, nil // root cannot start the flood
	}
	frames := make(map[int]alignPayload, n)
	_, err = network.Flood(nw, cfg.Root, func(node, from int, in alignPayload) (alignPayload, bool) {
		var frame alignPayload
		if from < 0 {
			// Root: the global frame is its local frame.
			frame = alignPayload{origin: geom.Pt(0, 0), ex: geom.Pt(1, 0), ey: geom.Pt(0, 1)}
		} else {
			t, ok := transforms[edgeKey{from: from, to: node}]
			if !ok {
				return alignPayload{}, false // no transform: cannot align or forward
			}
			frame = alignPayload{
				origin: t.Apply(in.origin),
				ex:     t.ApplyVector(in.ex),
				ey:     t.ApplyVector(in.ey),
			}
		}
		self, ok := localMaps[node][node]
		if !ok {
			return alignPayload{}, false
		}
		rel := self.Sub(frame.origin)
		res.Positions[node] = geom.Pt(rel.Dot(frame.ex), rel.Dot(frame.ey))
		frames[node] = frame
		return frame, true
	})
	if err != nil {
		return nil, err
	}

	res.MessagesSent = nw.MessagesSent()
	for i := range res.Positions {
		res.Localized = append(res.Localized, i)
	}
	sort.Ints(res.Localized)
	return res, nil
}

// solveLocalMap builds node i's local relative map: LSS over i and its
// neighbors using every measurement among them. It returns nil when the
// neighborhood is too small or the local solve fails.
func solveLocalMap(set *measure.Set, i int, cfg LSSConfig, rng *rand.Rand) map[int]geom.Point {
	members := append([]int{i}, set.Neighbors(i)...)
	if len(members) < 3 {
		return nil
	}
	index := make(map[int]int, len(members))
	for k, id := range members {
		index[id] = k
	}
	sub, err := measure.NewSet(len(members))
	if err != nil {
		return nil
	}
	for a := 0; a < len(members); a++ {
		for b := a + 1; b < len(members); b++ {
			if m, ok := set.Get(members[a], members[b]); ok {
				if err := sub.Add(a, b, m.Distance, m.Weight); err != nil {
					return nil
				}
			}
		}
	}
	if sub.Len() < len(members) { // fewer measurements than nodes: hopeless
		return nil
	}
	sol, err := SolveLSS(sub, cfg, rng)
	if err != nil {
		return nil
	}
	out := make(map[int]geom.Point, len(members))
	for k, id := range members {
		out[id] = sol.Positions[k]
	}
	return out
}

// fitFrames computes the rigid transform mapping src-frame coordinates to
// dst-frame coordinates using the nodes present in both maps (the shared
// neighbors C of Section 4.3.1). It reports failure when fewer than
// minShared nodes are shared. The shared nodes enter the fit in ascending
// id order: FitRigid's covariance sums in Go's randomized map order would
// differ in the last ulp from run to run.
func fitFrames(src, dst map[int]geom.Point, minShared int) (geom.Transform, bool) {
	var shared []int
	for id := range src {
		if _, ok := dst[id]; ok {
			shared = append(shared, id)
		}
	}
	sort.Ints(shared)
	from := make([]geom.Point, len(shared))
	to := make([]geom.Point, len(shared))
	for k, id := range shared {
		from[k], to[k] = src[id], dst[id]
	}
	if len(from) < minShared {
		return geom.Transform{}, false
	}
	t, _, err := geom.FitRigid(from, to)
	if err != nil {
		return geom.Transform{}, false
	}
	return t, true
}
