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
//	            [-progress] [-progress-refresh 250ms]
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
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/experiments"
	"resilientloc/internal/obs"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// buildSpecs compiles the CLI selection into figure job specs: from a spec
// file when -spec is given, from an expanded sweep document when -sweep is
// given, else from -only/-seed/-param.
func buildSpecs(opts run.Options, only, specFile, sweepFile string) ([]spec.JobSpec, error) {
	if specFile != "" || sweepFile != "" {
		if only != "" || (specFile != "" && sweepFile != "") {
			return nil, fmt.Errorf("use exactly one of -only, -spec, or -sweep, not both")
		}
		if sweepFile != "" {
			sw, err := spec.LoadSweepFile(sweepFile)
			if err != nil {
				return nil, err
			}
			return sw.Expand()
		}
		return spec.LoadFileOfKind(specFile, spec.KindFigure)
	}
	var ids []string
	if only == "" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(only, ",") {
			id = strings.TrimSpace(id)
			if _, ok := experiments.Find(id); !ok {
				return nil, fmt.Errorf("unknown experiment %q", id)
			}
			ids = append(ids, id)
		}
	}
	return opts.Specs(spec.KindFigure, ids), nil
}

func realMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var opts run.Options
	opts.RegisterCommon(fs)
	opts.RegisterParams(fs)
	opts.RegisterSuiteParallel(fs)
	var prof run.ProfileOptions
	prof.Register(fs)
	list := fs.Bool("list", false, "list experiment IDs and their parameter schemas, then exit")
	only := fs.String("only", "", "comma-separated experiment IDs to run (default: all)")
	specFile := fs.String("spec", "", "JSON job-spec file to execute instead of -only selection")
	sweepFile := fs.String("sweep", "", "JSON sweep file (spec template + parameter grid) to expand and execute")
	workers := fs.String("workers", "",
		"comma-separated locd worker URLs: distribute each figure's trials across them instead of running locally")
	discover := fs.String("discover", "",
		"fleet registry base URL to discover locd workers from (distributed mode, like -workers; mid-run joiners participate)")
	asJSON := fs.Bool("json", false, "emit results as a JSON array")
	progress := fs.Bool("progress", true, "stream per-figure trial progress to stderr")
	traceFile := fs.String("trace", "",
		"write the run's span tree (jobs, engine shards; distributed runs add coordinator ranges) as Chrome trace_event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *progress && !*asJSON {
		opts.Progress = os.Stderr
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()
	ctx := context.Background()
	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}

	if *list {
		return printList(out)
	}
	if *specFile != "" || *sweepFile != "" {
		if err := run.RejectSpecParameterFlags(fs, "seed", "param"); err != nil {
			return err
		}
	}
	specs, err := buildSpecs(opts, *only, *specFile, *sweepFile)
	if err != nil {
		return err
	}
	if *workers != "" || *discover != "" {
		if err := runDistributed(ctx, out, specs, *workers, *discover, *asJSON, *progress); err != nil {
			return err
		}
		return tracer.WriteChromeTraceFile(*traceFile)
	}
	jobs, err := spec.ResolveAll(specs)
	if err != nil {
		return err
	}
	sess, err := run.NewSession(opts)
	if err != nil {
		return err
	}

	var results []*experiments.Result
	var firstErr error
	// onDone streams each figure in suite order as soon as it (and all its
	// predecessors) finished, so output bytes match sequential execution.
	run.ExecuteAllContext(ctx, sess, jobs, func(o run.Outcome) {
		if o.Err != nil {
			if firstErr == nil && !errors.Is(o.Err, run.ErrSkipped) {
				firstErr = fmt.Errorf("%s: %w", o.Spec.ID, o.Err)
			}
			return
		}
		results = append(results, o.Result.Figure)
		if !*asJSON {
			fmt.Fprint(out, o.Result.Figure.Render())
			status := fmt.Sprintf("elapsed: %v", o.Info.Elapsed.Round(time.Millisecond))
			if o.Info.Cached {
				status = "cached"
			}
			fmt.Fprintf(out, "  (%s)\n\n", status)
		}
	})
	if firstErr != nil {
		return firstErr
	}
	if err := tracer.WriteChromeTraceFile(*traceFile); err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	return nil
}

// printList writes each experiment ID; parameterized experiments also list
// their schema, one "-param" line per declared axis.
func printList(out io.Writer) error {
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
	return nil
}

// runDistributed executes each figure spec across the locd worker fleet via
// the trial-range coordinator. Figure results are byte-identical to the
// local path (figures carry no execution metadata), so -json output matches
// a local run exactly. Like locc and cmd/scenarios, it adopts whatever the
// fleet's caches already hold.
func runDistributed(ctx context.Context, out io.Writer, specs []spec.JobSpec, workers, discover string, asJSON, progress bool) error {
	urls := coord.ParseWorkers(workers)
	var results []*experiments.Result
	for _, sp := range specs {
		start := time.Now()
		opts := coord.Options{Workers: urls, Discover: discover, Reuse: true, Warnings: os.Stderr}
		var sb *coord.Scoreboard
		if progress && !asJSON {
			sb = coord.NewScoreboard(os.Stderr, sp.ID)
			opts.OnProgress = sb.Progress
			opts.OnScoreboard = sb.Update
		}
		val, st, err := coord.Execute(ctx, sp, opts)
		sb.Final()
		if err != nil {
			return fmt.Errorf("%s: %w", sp.ID, err)
		}
		if val.Figure == nil {
			return fmt.Errorf("%s: coordinator returned no figure", sp.ID)
		}
		results = append(results, val.Figure)
		if !asJSON {
			fmt.Fprint(out, val.Figure.Render())
			fmt.Fprintf(out, "  (distributed: %d ranges over %d workers, elapsed: %v)\n\n",
				st.Ranges, st.Workers, time.Since(start).Round(time.Millisecond))
		}
	}
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	return nil
}
