// Command scenarios lists and runs the scenario library on the concurrent
// execution engine, through the same spec-driven campaign runner (worker
// pool, result cache, streaming progress) as cmd/experiments and locd.
//
// Usage:
//
//	scenarios -list
//	scenarios -run multilat-town,ranging-grass-refined [-trials N] [-parallel W] [-seed S] [-json]
//	scenarios -run mobility-waypoint -param speed_mps=2.5 -param epoch_s=8
//	scenarios -suite multilat [-suite-parallel C] [-json]
//	scenarios -run all [-cache DIR | -no-cache] [-cache-gc=off] [-progress]
//	scenarios -spec jobs.json
//	scenarios -sweep sweep.json
//
// Every invocation first compiles its selection into declarative job specs
// (spec.JobSpec: scenario name, seed, trial/shard overrides, factory
// params) and executes them through the unified runner; -spec runs a
// ready-made spec file (one JSON object or an array, kind "scenario")
// instead — the same documents locd accepts over HTTP — and -sweep expands
// a sweep document (spec template + parameter grid) into one job per grid
// point, exactly as locd's /v1/sweeps endpoint does.
//
// -run accepts both library scenarios and parameterized factories; the
// repeatable -param flag selects a factory's operating point (-list prints
// each factory's schema), and the params become part of the job's content
// address, so every distinct operating point caches separately.
//
// All metric aggregates are deterministic per seed at any -parallel value
// (only the reported worker count and elapsed time vary), which is what
// makes results cacheable: repeated runs with the same scenario, seed,
// trial count, and binary are served from the on-disk cache with zero trial
// computation. -suite-parallel C overlaps up to C independent scenarios
// (0 = GOMAXPROCS) on one shared worker budget, largest first; aggregates
// and output order are identical at every value. Reports stream as each
// scenario finishes; -progress adds a per-scenario trials-completed counter
// on stderr for long sweeps.
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

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/coord"
	enginerun "resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// progressWriter receives the streaming trial counters; a variable so tests
// can capture it.
var progressWriter io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	var opts enginerun.Options
	opts.RegisterCommon(fs)
	opts.RegisterTrials(fs)
	opts.RegisterShardSize(fs)
	opts.RegisterParams(fs)
	opts.RegisterSuiteParallel(fs)
	var prof enginerun.ProfileOptions
	prof.Register(fs)
	list := fs.Bool("list", false, "list scenarios and suites, then exit")
	runNames := fs.String("run", "", "comma-separated scenario names to run, or \"all\"")
	suite := fs.String("suite", "", "run every scenario of the named suite")
	specFile := fs.String("spec", "", "JSON job-spec file to execute instead of -run/-suite selection")
	sweepFile := fs.String("sweep", "", "JSON sweep file (spec template + parameter grid) to expand and execute")
	workers := fs.String("workers", "",
		"comma-separated locd worker URLs: distribute each scenario's trials across them instead of running locally")
	discover := fs.String("discover", "",
		"fleet registry base URL to discover locd workers from (distributed mode, like -workers; mid-run joiners participate)")
	ciTarget := fs.Float64("ci-target", 0,
		"auto-trials mode: double each scenario's trial count until the 95% CI half-width of the stopping metric is at most this (0 = fixed trial counts)")
	ciMetric := fs.String("ci-metric", "",
		"stopping metric for -ci-target (default: each report's headline metric)")
	asJSON := fs.Bool("json", false, "emit reports as a JSON array")
	progress := fs.Bool("progress", true, "stream per-scenario trial progress to stderr")
	traceFile := fs.String("trace", "",
		"write the run's span tree (jobs, engine shards; distributed runs add coordinator ranges) as Chrome trace_event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *progress && !*asJSON {
		opts.Progress = progressWriter
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "scenarios:", err)
		}
	}()
	ctx := context.Background()
	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}

	if *list || (*runNames == "" && *suite == "" && *specFile == "" && *sweepFile == "") {
		return printList(out)
	}

	if *specFile != "" || *sweepFile != "" {
		if err := enginerun.RejectSpecParameterFlags(fs, "seed", "trials", "shard-size", "param"); err != nil {
			return err
		}
	}
	specs, err := buildSpecs(opts, *runNames, *suite, *specFile, *sweepFile)
	if err != nil {
		return err
	}
	if *ciTarget > 0 {
		if *specFile != "" || *sweepFile != "" {
			return fmt.Errorf("-ci-target cannot be combined with a spec or sweep file; put auto_trials in the spec instead")
		}
		for i := range specs {
			specs[i].AutoTrials = &spec.AutoTrials{CITarget: *ciTarget, Metric: *ciMetric}
			if err := specs[i].Validate(); err != nil {
				return err
			}
		}
	}
	if *workers != "" || *discover != "" {
		if err := runDistributed(ctx, out, specs, *workers, *discover, *asJSON, *progress); err != nil {
			return err
		}
		return tracer.WriteChromeTraceFile(*traceFile)
	}
	sess, err := enginerun.NewSession(opts)
	if err != nil {
		return err
	}
	if hasAuto(specs) {
		// Auto specs never resolve as single jobs, so the suite scheduler
		// cannot take them; run the whole selection sequentially in order —
		// round sequences are interactive-length anyway.
		if err := runSequential(ctx, out, sess, specs, *asJSON); err != nil {
			return err
		}
		return tracer.WriteChromeTraceFile(*traceFile)
	}
	jobs, err := spec.ResolveAll(specs)
	if err != nil {
		return err
	}

	var reports []*engine.Report
	var firstErr error
	// Reports stream in suite order as prefixes complete, so output bytes
	// match sequential execution at any -suite-parallel value.
	enginerun.ExecuteAllContext(ctx, sess, jobs, func(o enginerun.Outcome) {
		if o.Err != nil {
			if firstErr == nil && !errors.Is(o.Err, enginerun.ErrSkipped) {
				firstErr = o.Err
			}
			return
		}
		reportReuse(o.Spec.ID, o.Info)
		reports = append(reports, o.Result.Report)
		if !*asJSON {
			printReport(out, o.Result.Report, o.Info.Cached)
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
		return enc.Encode(reports)
	}
	return nil
}

// hasAuto reports whether any spec drives an auto-trials round sequence.
func hasAuto(specs []spec.JobSpec) bool {
	for _, sp := range specs {
		if sp.AutoTrials != nil {
			return true
		}
	}
	return false
}

// reportReuse notes planner reuse on stderr — stderr so stdout's report
// bytes stay identical between a cold run and one extended from cache.
func reportReuse(id string, info enginerun.Info) {
	if info.ReusedTrials > 0 {
		fmt.Fprintf(os.Stderr, "scenarios: %s: reused %d of %d trials from cache\n",
			id, info.ReusedTrials, info.Trials)
	}
}

// runSequential executes specs one at a time through the session — the path
// for selections containing auto-trials specs, which the batch resolver
// rejects (each is a round sequence, not one job).
func runSequential(ctx context.Context, out io.Writer, sess *enginerun.Session, specs []spec.JobSpec, asJSON bool) error {
	var reports []*engine.Report
	for _, sp := range specs {
		val, info, err := enginerun.ExecuteSpecContext(ctx, sess, sp)
		if err != nil {
			return err
		}
		if val.Report == nil {
			return fmt.Errorf("%s: no report produced", sp.ID)
		}
		reportReuse(sp.ID, info)
		reports = append(reports, val.Report)
		if !asJSON {
			printReport(out, val.Report, info.Cached)
		}
	}
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	return nil
}

// runDistributed executes each scenario spec across the locd worker fleet
// via the trial-range coordinator. Aggregates are byte-identical to the
// local path; the report's execution metadata describes the coordinated run
// (distinct workers used, coordination wall time).
func runDistributed(ctx context.Context, out io.Writer, specs []spec.JobSpec, workers, discover string, asJSON, progress bool) error {
	urls := coord.ParseWorkers(workers)
	var reports []*engine.Report
	for _, sp := range specs {
		// Reuse is on by default distributed, matching locc: extending a
		// previously coordinated run computes only the new trials.
		opts := coord.Options{Workers: urls, Discover: discover, Reuse: true, Warnings: os.Stderr}
		var sb *coord.Scoreboard
		if progress && !asJSON {
			sb = coord.NewScoreboard(os.Stderr, sp.ID)
			opts.OnProgress = sb.Progress
			opts.OnScoreboard = sb.Update
		}
		val, _, err := coord.ExecuteAuto(ctx, sp, opts)
		sb.Final()
		if err != nil {
			return fmt.Errorf("%s: %w", sp.ID, err)
		}
		if val.Report == nil {
			return fmt.Errorf("%s: coordinator returned no report", sp.ID)
		}
		reports = append(reports, val.Report)
		if !asJSON {
			printReport(out, val.Report, false)
		}
	}
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	return nil
}

// buildSpecs compiles the CLI selection into scenario job specs: from a
// spec file when -spec is given, from an expanded sweep document when
// -sweep is given, else from -run/-suite plus the trial/shard/seed/param
// flags.
func buildSpecs(opts enginerun.Options, runNames, suite, specFile, sweepFile string) ([]spec.JobSpec, error) {
	if specFile != "" || sweepFile != "" {
		if runNames != "" || suite != "" || (specFile != "" && sweepFile != "") {
			return nil, fmt.Errorf("use exactly one of -run/-suite, -spec, or -sweep, not both")
		}
		if sweepFile != "" {
			sw, err := spec.LoadSweepFile(sweepFile)
			if err != nil {
				return nil, err
			}
			return sw.Expand()
		}
		return spec.LoadFileOfKind(specFile, spec.KindScenario)
	}
	names, err := selectNames(runNames, suite)
	if err != nil {
		return nil, err
	}
	return opts.Specs(spec.KindScenario, names), nil
}

// selectNames resolves -run/-suite into scenario names: suites and "all"
// draw from the library; explicit -run names may also address parameterized
// factories (whose operating point the -param flags select).
func selectNames(runNames, suite string) ([]string, error) {
	if suite != "" {
		if runNames != "" {
			return nil, fmt.Errorf("use either -run or -suite, not both")
		}
		st, ok := engine.FindSuite(suite)
		if !ok {
			return nil, fmt.Errorf("unknown suite %q", suite)
		}
		names := make([]string, len(st.Scenarios))
		for i, s := range st.Scenarios {
			names[i] = s.Name
		}
		return names, nil
	}
	if runNames == "all" {
		lib := engine.Library()
		names := make([]string, len(lib))
		for i, s := range lib {
			names[i] = s.Name
		}
		return names, nil
	}
	var names []string
	for _, name := range strings.Split(runNames, ",") {
		name = strings.TrimSpace(name)
		_, inLibrary := engine.Find(name)
		_, isFactory := engine.FindFactory(name)
		if !inLibrary && !isFactory {
			return nil, fmt.Errorf("unknown scenario %q", name)
		}
		names = append(names, name)
	}
	return names, nil
}

func printList(out io.Writer) error {
	for _, suite := range engine.Suites() {
		fmt.Fprintf(out, "suite %s — %s\n", suite.Name, suite.Description)
		for _, s := range suite.Scenarios {
			fmt.Fprintf(out, "  %-28s %4d trials  %s\n", s.Name, s.Trials, s.Description)
		}
	}
	fmt.Fprintf(out, "parameterized factories — select an operating point with repeated -param name=value\n")
	for _, f := range engine.Factories() {
		fmt.Fprintf(out, "  %-28s %s\n", f.Name, f.Description)
		for _, p := range f.Params {
			constraint := p.Constraint()
			if constraint != "" {
				constraint = "  " + constraint
			}
			fmt.Fprintf(out, "      %-16s %-6s default %-10s%s  %s\n",
				p.Name, p.Kind, p.Default.String(), constraint, p.Help)
		}
	}
	return nil
}

func printReport(out io.Writer, rep *engine.Report, cached bool) {
	// On a cache hit the stored report's workers/elapsed describe the run
	// that filled the cache, not this invocation — say "cached" instead.
	how := fmt.Sprintf("%d workers, %.2fs", rep.Workers, rep.ElapsedSeconds)
	if cached {
		how = "cached"
	}
	rep.WriteSummary(out, how)
	fmt.Fprintln(out)
}
