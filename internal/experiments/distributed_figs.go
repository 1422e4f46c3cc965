package experiments

import (
	"math/rand"

	"resilientloc/internal/core"
	"resilientloc/internal/engine"
	"resilientloc/internal/engine/params"
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
func fig24Campaign(seed int64, _ params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig24",
		title: "Distributed LSS on sparse grid field measurements",
		claim: "average error 9.494 m: bad transforms are amplified and propagated; " +
			"only 247 total distance measurements for 47 nodes",
	}, func(t *engine.T) error {
		set, dep, err := gridFieldSet(seed)
		if err != nil {
			return err
		}
		cfg := core.DefaultDistributedConfig(distributedGridRoot, 9.14)
		res, err := core.SolveDistributed(set, cfg, rand.New(rand.NewSource(seed+30)))
		if err != nil {
			return err
		}
		t.Record("measured pairs", float64(set.Len()))
		t.Record("nodes aligned", float64(len(res.Localized)))
		t.Record("of nodes", float64(dep.N()))
		t.Record("pairwise transforms", float64(res.Transforms))
		t.Record("messages sent", float64(res.MessagesSent))
		if len(res.Localized) >= 2 {
			a, err := eval.FitSubset(res.Positions, dep.Positions, res.Localized)
			if err != nil {
				return err
			}
			t.Record("average error of aligned", a.AvgError)
			t.Record("max error of aligned", a.MaxError)
		}
		return nil
	})
}

// fig25Campaign reproduces Figure 25: the same run after adding
// 370 simulated distances (N(0, 0.33 m), 22 m cutoff). Paper: all nodes
// localized with 0.534 m average error.
func fig25Campaign(seed int64, _ params.Map) engine.Campaign[*Result] {
	return singleTrial(figure{
		id:    "fig25",
		title: "Distributed LSS with 370 additional simulated distances",
		claim: "all nodes localized with 0.534 m average error",
	}, func(t *engine.T) error {
		set, dep, err := gridFieldSet(seed)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed + 31))
		added, err := measure.Augment(set, dep, 22, measure.GaussianNoise, 370, rng)
		if err != nil {
			return err
		}
		cfg := core.DefaultDistributedConfig(distributedGridRoot, 9.14)
		res, err := core.SolveDistributed(set, cfg, rand.New(rand.NewSource(seed+32)))
		if err != nil {
			return err
		}
		t.Record("simulated distances added", float64(added))
		t.Record("total pairs", float64(set.Len()))
		t.Record("nodes aligned", float64(len(res.Localized)))
		t.Record("of nodes", float64(dep.N()))
		if len(res.Localized) >= 2 {
			a, err := eval.FitSubset(res.Positions, dep.Positions, res.Localized)
			if err != nil {
				return err
			}
			t.Record("average error of aligned", a.AvgError)
		}
		return nil
	})
}
