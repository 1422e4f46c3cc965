package experiments

import (
	"math/rand"

	"resilientloc/internal/core"
	"resilientloc/internal/engine"
	"resilientloc/internal/eval"
	"resilientloc/internal/measure"
)

// distributedGridRoot is the root node for the distributed runs: the node
// nearest the paper's (27, 36) root on the offset grid (row 4, column 2:
// x = 5 + 2·10 = 25, y = 36).
const distributedGridRoot = 30

// fig24Campaign reproduces Figure 24: distributed LSS on the
// sparse grass-grid field measurements. Paper: 9.494 m average error —
// about half the nodes have very large errors because a bad pairwise
// transform is amplified and propagated (only 247 measured pairs for 47
// nodes).
func fig24Campaign(seed int64) engine.Campaign[*Result] {
	return singleTrial("fig24", func(t *engine.T) (*Result, error) {
		set, dep, err := gridFieldSet(seed)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultDistributedConfig(distributedGridRoot, 9.14)
		res, err := core.SolveDistributed(set, cfg, rand.New(rand.NewSource(seed+30)))
		if err != nil {
			return nil, err
		}
		r := &Result{
			ID:    "fig24",
			Title: "Distributed LSS on sparse grid field measurements",
			PaperClaim: "average error 9.494 m: bad transforms are amplified and propagated; " +
				"only 247 total distance measurements for 47 nodes",
		}
		r.Add("measured pairs", float64(set.Len()), "")
		r.Add("nodes aligned", float64(len(res.Localized)), "")
		r.Add("of nodes", float64(dep.N()), "")
		r.Add("pairwise transforms", float64(res.Transforms), "")
		r.Add("messages sent", float64(res.MessagesSent), "")
		if len(res.Localized) >= 2 {
			a, err := eval.FitSubset(res.Positions, dep.Positions, res.Localized)
			if err != nil {
				return nil, err
			}
			r.Add("average error of aligned", a.AvgError, "m")
			r.Add("max error of aligned", a.MaxError, "m")
		}
		return r, nil
	})
}

// fig25Campaign reproduces Figure 25: the same run after adding
// 370 simulated distances (N(0, 0.33 m), 22 m cutoff). Paper: all nodes
// localized with 0.534 m average error.
func fig25Campaign(seed int64) engine.Campaign[*Result] {
	return singleTrial("fig25", func(t *engine.T) (*Result, error) {
		set, dep, err := gridFieldSet(seed)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + 31))
		added, err := measure.Augment(set, dep, 22, measure.GaussianNoise, 370, rng)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultDistributedConfig(distributedGridRoot, 9.14)
		res, err := core.SolveDistributed(set, cfg, rand.New(rand.NewSource(seed+32)))
		if err != nil {
			return nil, err
		}
		r := &Result{
			ID:         "fig25",
			Title:      "Distributed LSS with 370 additional simulated distances",
			PaperClaim: "all nodes localized with 0.534 m average error",
		}
		r.Add("simulated distances added", float64(added), "")
		r.Add("total pairs", float64(set.Len()), "")
		r.Add("nodes aligned", float64(len(res.Localized)), "")
		r.Add("of nodes", float64(dep.N()), "")
		if len(res.Localized) >= 2 {
			a, err := eval.FitSubset(res.Positions, dep.Positions, res.Localized)
			if err != nil {
				return nil, err
			}
			r.Add("average error of aligned", a.AvgError, "m")
		}
		return r, nil
	})
}
