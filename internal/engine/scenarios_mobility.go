package engine

import (
	"fmt"
	"math"

	"resilientloc/internal/acoustics"
	"resilientloc/internal/core"
	"resilientloc/internal/deploy"
	"resilientloc/internal/eval"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/ranging"
)

// This file holds the workloads that exist only as parameterized factories —
// operating points no suite's fixed point reaches. They are built via
// BuildScenario (see factory.go) from a job spec's params, never registered
// in Suites(): every instance shares one scenario name and the params on the
// cache key tell the operating points apart.

// MobilityWaypoint is town multilateration under random-waypoint motion: the
// paper's measurement model assumes nodes hold still for a whole ranging
// epoch, and this workload quantifies what breaks when they don't. Each
// trial draws a fresh town; every non-anchor node picks a random waypoint
// inside the deployment's bounding box and walks toward it at speedMps,
// stopping on arrival. Each pair is measured once at its own random instant
// within the epochS-second epoch — so the two endpoints of different
// measurements are captured at mutually inconsistent positions — and the
// solver's output is scored against the mid-epoch ground truth. At speed 0
// this degenerates to the static town scenario; as speed grows the
// measurement set becomes self-inconsistent and error rises.
func MobilityWaypoint(speedMps, epochS float64) Scenario {
	return Scenario{
		Name: "mobility-waypoint",
		Description: fmt.Sprintf(
			"town multilateration under random-waypoint motion, %g m/s over a %g s epoch", speedMps, epochS),
		Trials: 8,
		Run: func(t *T) error {
			dep := deploy.Town(t.RNG)
			// Bounding box of the deployment: waypoints stay inside it so
			// motion never drags the network apart.
			minP := dep.Positions[0]
			maxP := dep.Positions[0]
			for _, p := range dep.Positions {
				minP.X = math.Min(minP.X, p.X)
				minP.Y = math.Min(minP.Y, p.Y)
				maxP.X = math.Max(maxP.X, p.X)
				maxP.Y = math.Max(maxP.Y, p.Y)
			}
			// Per-node waypoints, drawn in node order. Anchors are mounted
			// infrastructure and stay put; their waypoint is their position.
			waypoints := t.Scratch().Points(dep.N())
			for i := range waypoints {
				if dep.IsAnchor(i) {
					waypoints[i] = dep.Positions[i]
					continue
				}
				waypoints[i] = geom.Pt(
					minP.X+t.RNG.Float64()*(maxP.X-minP.X),
					minP.Y+t.RNG.Float64()*(maxP.Y-minP.Y))
			}
			posAt := func(i int, tau float64) geom.Point {
				to := waypoints[i].Sub(dep.Positions[i])
				dist := to.Norm()
				travel := speedMps * tau
				if travel >= dist || dist == 0 {
					return waypoints[i]
				}
				return dep.Positions[i].Add(to.Scale(travel / dist))
			}
			set, err := measure.NewSetIn(t.Scratch(), dep.N())
			if err != nil {
				return err
			}
			pairs := 0
			for i := 0; i < dep.N(); i++ {
				for j := i + 1; j < dep.N(); j++ {
					// Each pair ranges at its own instant of the epoch: the
					// positions that produced measurement (i,j) need not
					// agree with those behind (i,k).
					tau := t.RNG.Float64() * epochS
					d := posAt(i, tau).Dist(posAt(j, tau))
					if d > 22 {
						continue
					}
					meas := d + t.RNG.NormFloat64()*measure.GaussianNoise
					if meas <= 0.01 {
						meas = 0.01
					}
					if err := set.Add(i, j, meas, 1); err != nil {
						return err
					}
					pairs++
				}
			}
			anchors := make(map[int]geom.Point, len(dep.Anchors))
			for _, a := range dep.Anchors {
				anchors[a] = dep.Positions[a]
			}
			res, err := core.SolveMultilaterationIn(t.Scratch(), set, anchors, core.DefaultMultilatConfig())
			if err != nil {
				return err
			}
			// Ground truth is the mid-epoch snapshot — the best single-instant
			// answer a static solver could be asked for.
			truth := t.Scratch().Points(dep.N())
			for i := range truth {
				truth[i] = posAt(i, epochS/2)
			}
			t.Record("pairs", float64(pairs))
			t.Record("localized_frac", float64(len(res.Localized))/float64(dep.N()-len(dep.Anchors)))
			if len(res.Localized) > 0 {
				avg, worst, err := eval.AvgErrorAbsolute(res.Positions, truth)
				if err != nil {
					return err
				}
				t.Record("avg_error_m", avg)
				t.Record("worst_error_m", worst)
			}
			return nil
		},
	}
}

// MixedEnvRanging ranges a grid deployment that straddles two acoustic
// environments — e.g. a lawn meeting a parking lot — which the paper's
// single-environment campaigns cannot express. The 48-node offset grid is
// split at boundaryFrac of its width: pairs whose midpoint falls left of the
// boundary propagate under envA, the rest under envB, and the pooled
// readings are scored exactly like the single-environment campaigns.
func MixedEnvRanging(envA, envB acoustics.Environment, boundaryFrac float64) Scenario {
	return Scenario{
		Name: "ranging-mixed-env",
		Description: fmt.Sprintf(
			"refined ranging on a 48-node grid straddling %s and %s at %g of its width",
			envA.Name, envB.Name, boundaryFrac),
		Trials: 8,
		Run: func(t *T) error {
			dep, err := deploy.OffsetGrid(6, 8, 9, 10)
			if err != nil {
				return err
			}
			// One service per environment over the same deployment, built in
			// a fixed order so the RNG stream is deterministic. Each carries
			// its own per-unit variation — plausible, since recalibrating for
			// the surface is exactly what a mixed deployment would do.
			svcA, err := ranging.NewService(ranging.DefaultConfig(envA), dep, t.RNG)
			if err != nil {
				return err
			}
			svcB, err := ranging.NewService(ranging.DefaultConfig(envB), dep, t.RNG)
			if err != nil {
				return err
			}
			minX, maxX := dep.Positions[0].X, dep.Positions[0].X
			for _, p := range dep.Positions {
				minX = math.Min(minX, p.X)
				maxX = math.Max(maxX, p.X)
			}
			boundary := minX + boundaryFrac*(maxX-minX)
			raw, err := measure.NewRaw(dep.N())
			if err != nil {
				return err
			}
			sideA := 0
			total := 0
			for i := 0; i < dep.N(); i++ {
				for j := i + 1; j < dep.N(); j++ {
					if dep.Positions[i].Dist(dep.Positions[j]) > 21 {
						continue
					}
					total++
					svc := svcB
					if (dep.Positions[i].X+dep.Positions[j].X)/2 < boundary {
						svc = svcA
						sideA++
					}
					if m, ok := svc.MeasurePair(i, j); ok {
						if err := raw.Add(i, j, m); err != nil {
							return err
						}
					}
				}
			}
			if total > 0 {
				t.Record("env_a_pair_frac", float64(sideA)/float64(total))
			}
			return recordSignedErrors(t, raw, dep)
		},
	}
}
