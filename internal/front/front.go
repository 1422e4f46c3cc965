// Package front is the one pipeline behind the campaign CLIs
// (cmd/experiments, cmd/scenarios, cmd/locc): load a selection's job specs,
// execute them in this process (a run.Session) or across a locd fleet (the
// coord coordinator), and print or encode each value by its type. A CLI
// keeps only its selection flags, its -list, and any flags of its own; the
// spec and sweep loaders, -ci-target stamping, tracing, profiling and output
// all live here, once.
package front

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// CLI holds one campaign command's execution settings: the local session's
// options, the fleet's options, the -ci-target stopping rule and the shared
// flags. A main registers flags onto it, parses, and calls Run.
type CLI struct {
	// Local is the in-process session's environment (run's flag helpers
	// write into it).
	Local run.Options
	// Fleet is the coordinator's environment; -workers or -discover selects
	// it over Local.
	Fleet coord.Options
	// Auto is the -ci-target stopping rule; a positive CITarget turns every
	// flag-built spec into an auto-trials spec.
	Auto spec.AutoTrials

	prof                run.ProfileOptions
	specFile, sweepFile string
	asJSON, progress    bool
	traceFile           string
}

// Register installs the flags every campaign CLI shares: -spec, -workers,
// -discover, -json, -progress and -trace.
func (c *CLI) Register(fs *flag.FlagSet) {
	// Distributed runs adopt what the fleet's caches hold unless -no-cache
	// (or locc's -reuse=false) asks for a cold run.
	c.Fleet.Reuse = true
	fs.StringVar(&c.specFile, "spec", "", "JSON job-spec file (one object or an array) to execute instead of a flag selection")
	fs.Func("workers", "comma-separated locd worker base URLs: distribute each job's trials across them instead of running locally",
		func(v string) error { c.Fleet.Workers = coord.ParseWorkers(v); return nil })
	fs.StringVar(&c.Fleet.Discover, "discover", "",
		"fleet registry base URL to discover locd workers from (any locd serves one); re-polled mid-run for joiners")
	fs.BoolVar(&c.asJSON, "json", false, "emit results as a JSON array of figures or reports")
	fs.BoolVar(&c.progress, "progress", true,
		"stream each job's trial progress to stderr (distributed runs add a per-worker scoreboard beneath it)")
	fs.StringVar(&c.traceFile, "trace", "",
		"write the run's span tree (jobs, engine shards; distributed runs add coordinator ranges) as Chrome trace_event JSON to this file")
}

// RegisterLocal installs the flags of the CLIs that also run in-process:
// run's common flags, -param, -suite-parallel, the profile flags and -sweep.
func (c *CLI) RegisterLocal(fs *flag.FlagSet) {
	c.Local.RegisterCommon(fs)
	c.Local.RegisterParams(fs)
	c.Local.RegisterSuiteParallel(fs)
	c.prof.Register(fs)
	fs.StringVar(&c.sweepFile, "sweep", "", "JSON sweep file (spec template + parameter grid) to expand and execute")
}

// Run executes the parsed command line. The specs come from the -spec or
// -sweep file (whose specs must be of kind, unless it is ""), else from
// build, which compiles the CLI's selection flags, named by selection; a
// selection that compiles to no specs runs nothing. Values print to out;
// notes, warnings and progress go to errOut.
func (c *CLI) Run(fs *flag.FlagSet, out, errOut io.Writer, kind string, build func() ([]spec.JobSpec, error), selection ...string) error {
	specs, err := c.load(fs, kind, build, selection)
	if err != nil || len(specs) == 0 {
		return err
	}
	fleet := len(c.Fleet.Workers) > 0 || c.Fleet.Discover != ""
	if fleet {
		if set := setFlags(fs, "parallel", "suite-parallel", "cache", "cache-gc"); len(set) > 0 {
			return fmt.Errorf("%s cannot be combined with -workers or -discover: the fleet's workers run with their own settings (-no-cache asks them for a cold run)",
				strings.Join(set, ", "))
		}
		if c.Local.NoCache {
			c.Fleet.Reuse = false
		}
	}
	c.Local.Warnings, c.Fleet.Warnings = errOut, errOut
	if c.progress && !c.asJSON {
		c.Local.Progress, c.Fleet.Progress = errOut, errOut
	}
	stopProf, err := c.prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(errOut, "%s: %v\n", fs.Name(), err)
		}
	}()
	ctx := context.Background()
	var tracer *obs.Tracer
	if c.traceFile != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}

	var values []any
	emit := func(sp spec.JobSpec, val *spec.Value, n note) error {
		if n.info.ReusedTrials > 0 {
			// stderr, so stdout's bytes match a cold run's.
			fmt.Fprintf(errOut, "%s: %s: reused %d of %d trials from cache\n",
				fs.Name(), sp.ID, n.info.ReusedTrials, n.info.Trials)
		}
		switch {
		case val.Figure != nil:
			values = append(values, val.Figure)
		case val.Report != nil:
			values = append(values, val.Report)
		default:
			return fmt.Errorf("%s: no figure or report produced", sp.ID)
		}
		if !c.asJSON {
			writeText(out, val, n)
		}
		return nil
	}
	if err := c.execute(ctx, fleet, specs, emit); err != nil {
		return err
	}
	if err := tracer.WriteChromeTraceFile(c.traceFile); err != nil {
		return err
	}
	if c.asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(values)
	}
	return nil
}

// load returns the specs to run: a spec file, an expanded sweep, or the
// flag selection build compiles, stamped with the -ci-target rule.
func (c *CLI) load(fs *flag.FlagSet, kind string, build func() ([]spec.JobSpec, error), selection []string) ([]spec.JobSpec, error) {
	files := setFlags(fs, "spec", "sweep")
	if len(files) == 0 {
		specs, err := build()
		if err != nil || c.Auto.CITarget <= 0 {
			return specs, err
		}
		for i := range specs {
			auto := c.Auto
			specs[i].AutoTrials = &auto
			if err := specs[i].Validate(); err != nil {
				return nil, err
			}
		}
		return specs, nil
	}
	if set := append(setFlags(fs, selection...), files...); len(set) > 1 {
		return nil, fmt.Errorf("use one of %s, not both", strings.Join(set, " or "))
	}
	// Job-parameter flags would silently lose against the file's own
	// (auto_trials is the file's form of -ci-target).
	if set := setFlags(fs, "seed", "trials", "shard-size", "param", "ci-target", "ci-metric"); len(set) > 0 {
		return nil, fmt.Errorf("%s cannot be combined with a spec or sweep file, which carries its own job parameters",
			strings.Join(set, ", "))
	}
	if c.sweepFile != "" {
		sw, err := spec.LoadSweepFile(c.sweepFile)
		if err != nil {
			return nil, err
		}
		return sw.Expand()
	}
	if kind == "" {
		return spec.LoadFile(c.specFile)
	}
	return spec.LoadFileOfKind(c.specFile, kind)
}

// note is how one value was produced: the session's Info locally, or the
// coordinator's Stats and wall time across the fleet.
type note struct {
	info    run.Info
	fleet   *coord.Stats
	elapsed time.Duration
}

// execute runs the specs in order, handing each value to emit. Local
// fixed-count specs go through run's suite scheduler, which overlaps up to
// -suite-parallel of them and still emits in spec order; fleet runs and
// auto-trials specs (a round sequence, not one job) go one spec at a time.
func (c *CLI) execute(ctx context.Context, fleet bool, specs []spec.JobSpec, emit func(spec.JobSpec, *spec.Value, note) error) error {
	one := func(sp spec.JobSpec) (*spec.Value, note, error) {
		start := time.Now()
		val, st, err := coord.ExecuteAuto(ctx, sp, c.Fleet)
		return val, note{fleet: &st, elapsed: time.Since(start)}, err
	}
	if !fleet {
		sess, err := run.NewSession(c.Local)
		if err != nil {
			return err
		}
		if !slices.ContainsFunc(specs, func(sp spec.JobSpec) bool { return sp.AutoTrials != nil }) {
			return suite(ctx, sess, specs, emit)
		}
		one = func(sp spec.JobSpec) (*spec.Value, note, error) {
			val, info, err := run.ExecuteSpecContext(ctx, sess, sp)
			return val, note{info: info}, err
		}
	}
	for _, sp := range specs {
		val, n, err := one(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.ID, err)
		}
		if err := emit(sp, val, n); err != nil {
			return err
		}
	}
	return nil
}

// suite runs fixed-count specs through run's suite scheduler and returns
// the first failure that is not a skip.
func suite(ctx context.Context, sess *run.Session, specs []spec.JobSpec, emit func(spec.JobSpec, *spec.Value, note) error) error {
	jobs, err := spec.ResolveAll(specs)
	if err != nil {
		return err
	}
	var first error
	run.ExecuteAllContext(ctx, sess, jobs, func(o run.Outcome) {
		var err error
		switch {
		case o.Err == nil:
			err = emit(o.Spec, o.Result, note{info: o.Info})
		case !errors.Is(o.Err, run.ErrSkipped):
			err = fmt.Errorf("%s: %w", o.Spec.ID, o.Err)
		}
		if first == nil {
			first = err
		}
	})
	return first
}

// writeText prints one value: a figure renders with a status line beneath
// it; a report's summary carries the status in its header. A distributed
// run replaces either status with the coordinator's line.
func writeText(out io.Writer, val *spec.Value, n note) {
	if val.Figure != nil {
		fmt.Fprint(out, val.Figure.Render())
	} else {
		// On a cache hit the stored report's workers/elapsed describe the
		// run that filled the cache, not this invocation.
		how := fmt.Sprintf("%d workers, %.2fs", val.Report.Workers, val.Report.ElapsedSeconds)
		if n.info.Cached {
			how = "cached"
		}
		val.Report.WriteSummary(out, how)
	}
	switch st := n.fleet; {
	case st != nil:
		extra := ""
		if st.Steals > 0 {
			extra += fmt.Sprintf(", %d steals", st.Steals)
		}
		if st.Joined > 0 || st.Left > 0 {
			extra += fmt.Sprintf(", fleet %+d/%+d", st.Joined, -st.Left)
		}
		if st.ReusedRanges > 0 {
			extra += fmt.Sprintf(", reused %d trials in %d ranges", st.ReusedTrials, st.ReusedRanges)
		}
		fmt.Fprintf(out, "  (distributed: %d ranges over %d workers, %d retries (%d hedged, %d dedup losses)%s, %v)\n\n",
			st.Ranges, st.Workers, st.Retries, st.Hedges, st.DedupLosses, extra, n.elapsed.Round(time.Millisecond))
	case val.Figure == nil:
		fmt.Fprintln(out)
	case n.info.Cached:
		fmt.Fprint(out, "  (cached)\n\n")
	default:
		fmt.Fprintf(out, "  (elapsed: %v)\n\n", n.info.Elapsed.Round(time.Millisecond))
	}
}

// setFlags returns the named flags that were set explicitly on the command
// line, each with its leading dash.
func setFlags(fs *flag.FlagSet, names ...string) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		for _, n := range names {
			if f.Name == n {
				set = append(set, "-"+n)
			}
		}
	})
	return set
}
