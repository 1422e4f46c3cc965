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
//	scenarios -run multilat-town -ci-target 0.05 [-ci-metric avg_error_m]
//	scenarios -run multilat-town -workers http://host1:8090,http://host2:8090
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
//
// -ci-target H turns every selected scenario into an auto-trials job: its
// trial count doubles until the 95% CI half-width of the stopping metric
// (-ci-metric, default the headline metric) is at most H, each round
// extending the last through the cache. A run that extends cached trials
// notes "scenarios: <id>: reused N of M trials from cache" on stderr.
//
// -workers URLs (or -discover REGISTRY) runs each scenario across a locd
// fleet with the same aggregates, ending its report in locc's
// "(distributed: ...)" line. The fleet adopts what its caches hold unless
// -no-cache asks for a cold run; the local-only -parallel, -suite-parallel,
// -cache and -cache-gc are rejected beside it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/front"
)

// progressWriter receives progress, warnings and reuse notes (stderr); a
// variable so tests can capture it.
var progressWriter io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	var cli front.CLI
	cli.Register(fs)
	cli.RegisterLocal(fs)
	cli.Local.RegisterTrials(fs)
	cli.Local.RegisterShardSize(fs)
	list := fs.Bool("list", false, "list scenarios and suites, then exit")
	runNames := fs.String("run", "", "comma-separated scenario names to run, or \"all\"")
	suite := fs.String("suite", "", "run every scenario of the named suite")
	fs.Float64Var(&cli.Auto.CITarget, "ci-target", 0,
		"auto-trials mode: double each scenario's trial count until the 95% CI half-width of the stopping metric is at most this (0 = fixed trial counts)")
	fs.StringVar(&cli.Auto.Metric, "ci-metric", "",
		"stopping metric for -ci-target (default: each report's headline metric)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printList(out)
		return nil
	}
	return cli.Run(fs, out, progressWriter, spec.KindScenario, func() ([]spec.JobSpec, error) {
		if *runNames == "" && *suite == "" {
			printList(out) // nothing selected: show what there is to run
			return nil, nil
		}
		names, err := selectNames(*runNames, *suite)
		if err != nil {
			return nil, err
		}
		return cli.Local.Specs(spec.KindScenario, names), nil
	}, "run", "suite")
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

func printList(out io.Writer) {
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
}
