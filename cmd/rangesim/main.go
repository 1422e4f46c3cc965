// Command rangesim runs the simulated acoustic ranging service over a
// deployment and emits the filtered, merged distance measurements as CSV
// (src,dst,distance,weight), ready for cmd/localize.
//
// Usage:
//
//	rangesim [-env grass|pavement|urban|wooded] [-layout grid|town|random]
//	         [-nodes N] [-rounds R] [-maxdist D] [-seed S] [-positions FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"resilientloc/internal/acoustics"
	"resilientloc/internal/deploy"
	"resilientloc/internal/measure"
	"resilientloc/internal/ranging"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rangesim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rangesim", flag.ContinueOnError)
	envName := fs.String("env", "grass", "acoustic environment: grass, pavement, urban, wooded")
	layout := fs.String("layout", "grid", "deployment layout: grid, town, random")
	nodes := fs.Int("nodes", 46, "node count (random layout; grid/town are fixed-size)")
	rounds := fs.Int("rounds", 3, "measurement rounds")
	maxDist := fs.Float64("maxdist", 21, "maximum pair distance to attempt, meters")
	seed := fs.Int64("seed", 1, "random seed")
	posFile := fs.String("positions", "", "optional file to write true node positions (id,x,y)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	env, err := acoustics.Preset(*envName)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))

	var dep *deploy.Deployment
	switch *layout {
	case "grid":
		dep = deploy.PaperGrid()
		if *nodes > 0 && *nodes < dep.N() {
			dep.Positions = dep.Positions[:*nodes]
		}
	case "town":
		dep = deploy.Town(rng)
	case "random":
		dep, err = deploy.UniformRandom(*nodes, 70, 70, 5, rng)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown layout %q", *layout)
	}

	svc, err := ranging.NewService(ranging.DefaultConfig(env), dep, rng)
	if err != nil {
		return err
	}
	set, err := svc.CampaignSet(*rounds, *maxDist, measure.FilterMedian, measure.DefaultMergeOptions())
	if err != nil {
		return err
	}

	if *posFile != "" {
		f, err := os.Create(*posFile)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintln(f, "# id,x,y")
		for i, p := range dep.Positions {
			fmt.Fprintf(f, "%d,%.4f,%.4f\n", i, p.X, p.Y)
		}
	}

	fmt.Fprintf(stdout, "# rangesim env=%s layout=%s nodes=%d rounds=%d seed=%d pairs=%d\n",
		env.Name, dep.Name, dep.N(), *rounds, *seed, set.Len())
	fmt.Fprintln(stdout, "# src,dst,distance_m,weight")
	for _, m := range set.All() {
		fmt.Fprintf(stdout, "%d,%d,%.4f,%.3f\n", m.Pair.Lo, m.Pair.Hi, m.Distance, m.Weight)
	}
	return nil
}
