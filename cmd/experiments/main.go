// Command experiments regenerates every figure of the paper's evaluation
// and prints paper-claim-versus-measured results. All figures execute
// through the spec-driven engine campaign path shared with cmd/scenarios
// and the locd service: same worker pool, same result cache, same streaming
// progress.
//
// Usage:
//
//	experiments [-seed N] [-only fig06,fig18] [-parallel W] [-json]
//	            [-suite-parallel C] [-cache DIR | -no-cache] [-cache-gc=off]
//	            [-progress]
//	experiments -list
//	experiments -only maxrange -param rounds=10
//	experiments -spec jobs.json
//	experiments -sweep sweep.json
//
// Every invocation first compiles its selection into declarative job specs
// (spec.JobSpec) and executes them through the unified runner; -spec skips
// the compilation and runs a ready-made spec file (one JSON object or an
// array of them, kind "figure"), exactly as locd would run the same specs,
// and -sweep expands a sweep document (spec template + parameter grid) into
// one job per grid point. Experiments that declare a parameter schema
// (-list prints it) accept -param name=value overrides; everything else is
// a fixed reproduction whose operating point is its definition.
//
// Repeated runs hit the on-disk result cache (keyed by scenario, seed,
// trial count, shard size, and a fingerprint of the binary) and skip all
// trial computation; -no-cache forces recomputation. -suite-parallel C
// overlaps up to C independent figure campaigns (0 = GOMAXPROCS) on top of
// trial-level parallelism, all drawing from one shared worker budget, with
// the largest campaigns dispatched first; results and output order are
// identical at every value.
//
// -progress (on by default) streams each figure's trial counter to stderr:
// an in-place status block on a terminal, quarter-milestone lines
// elsewhere. With -workers the same renderer adds the coordinator's
// per-worker scoreboard beneath the counter.
//
// -workers URLs (or -discover REGISTRY) runs each figure across a locd
// fleet with the same bytes, ending it in locc's "(distributed: ...)" line.
// The fleet adopts what its caches hold unless -no-cache asks for a cold
// run; the local-only -parallel, -suite-parallel, -cache and -cache-gc are
// rejected beside it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"resilientloc/internal/engine/spec"
	"resilientloc/internal/experiments"
	"resilientloc/internal/front"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func realMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var cli front.CLI
	cli.Register(fs)
	cli.RegisterLocal(fs)
	list := fs.Bool("list", false, "list experiment IDs and their parameter schemas, then exit")
	only := fs.String("only", "", "comma-separated experiment IDs to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printList(out)
		return nil
	}
	return cli.Run(fs, out, os.Stderr, spec.KindFigure, func() ([]spec.JobSpec, error) {
		var ids []string
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
		if *only != "" {
			ids = strings.Split(*only, ",")
			for i, id := range ids {
				ids[i] = strings.TrimSpace(id)
				if _, ok := experiments.Find(ids[i]); !ok {
					return nil, fmt.Errorf("unknown experiment %q", ids[i])
				}
			}
		}
		return cli.Local.Specs(spec.KindFigure, ids), nil
	}, "only")
}

// printList writes each experiment ID; parameterized experiments also list
// their schema, one "-param" line per declared axis.
func printList(out io.Writer) {
	for _, e := range experiments.All() {
		fmt.Fprintf(out, "%s\n", e.ID)
		for _, p := range e.Params {
			constraint := p.Constraint()
			if constraint != "" {
				constraint = "  " + constraint
			}
			fmt.Fprintf(out, "    %-16s %-6s default %-10s%s  %s\n",
				p.Name, p.Kind, p.Default.String(), constraint, p.Help)
		}
	}
}
