// Command locc is the distributed job coordinator CLI: it splits each job's
// trial space into trial_range sub-jobs, fans them out across a fleet of
// locd workers, retries failed or stalled ranges on the survivors, and
// merges the returned partial aggregates into the job's full result —
// byte-identical to running the same spec in one process (pinned by the
// golden corpus; execution metadata aside).
//
// Usage:
//
//	locc -workers http://host1:8090,http://host2:8090 -spec jobs.json [-json]
//	locc -workers ... -kind scenario -id multilat-town [-seed S] [-trials N] [-shard-size N]
//	locc -workers ... -kind scenario -id mobility-waypoint -param speed_mps=2.5
//	locc -workers ... -kind figure -id maxrange [-seed S] [-stall-timeout 5m]
//	locc -workers ... -kind figure -id maxrange -trace out.json
//	locc -discover http://registry:8090 -kind scenario -id multilat-town
//
// On a terminal, progress renders as a live per-worker scoreboard (ranges
// won, trials/sec, retries, stall hedges, steals). -trace writes the run's
// full span tree — coordinator ranges and attempts, plus each winning
// worker's job and engine-shard spans grafted beneath them — as Chrome
// trace_event JSON, loadable in chrome://tracing or Perfetto.
//
// Jobs run sequentially; each job's trials are what distribute. Scheduling
// is elastic: workers draw shard-aligned chunks, idle workers steal
// unsubmitted work, and with -discover the fleet is read — and re-read
// mid-run — from a membership registry (any locd serves one), so workers
// that join while a job runs are put to work. -reuse (on by default) first
// probes the fleet's range-keyed caches and executes only what they do not
// hold: a crashed coordinator's finished sub-ranges are adopted, a cached
// full result is returned as is, and ranges banked under a *different*
// trial count extend too, so growing a previously coordinated 1024-trial
// run to 4096 computes only [1024, 4096). -ci-target keeps doubling the
// trial count until the 95% CI half-width of the stopping metric falls
// below the target, each round extending the last through the same cache.
// Every sub-job is content-addressed on the worker fleet — its spec hash
// is the job ID and its range-extended cache key the on-disk record — so
// retried or duplicated ranges are deduplicated, not recomputed, and a
// reused result is byte-identical to an uninterrupted cold one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/params"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "locc:", err)
		os.Exit(1)
	}
}

// buildSpecs compiles the CLI selection into job specs: a spec file, or a
// single job from -kind/-id plus the parameter flags (including any -param
// operating-point selections, which become part of the job's content
// address exactly as in a spec file's params object).
func buildSpecs(specFile, kind, id string, seed int64, trials, shardSize int, p params.Map) ([]spec.JobSpec, error) {
	if specFile != "" {
		if kind != "" || id != "" {
			return nil, fmt.Errorf("use either -spec or -kind/-id, not both")
		}
		if len(p) > 0 {
			return nil, fmt.Errorf("-param cannot be combined with a spec file, which carries its own job parameters")
		}
		return spec.LoadFile(specFile)
	}
	if id == "" {
		return nil, fmt.Errorf("nothing to run: give -spec file.json or -kind KIND -id ID")
	}
	sp := spec.JobSpec{Kind: kind, ID: id, Seed: seed, Trials: trials, ShardSize: shardSize}
	if len(p) > 0 {
		sp.Params = p.Clone()
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return []spec.JobSpec{sp}, nil
}

func realMain(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("locc", flag.ContinueOnError)
	workersFlag := fs.String("workers", "", "comma-separated locd worker base URLs (required unless -discover is set)")
	discover := fs.String("discover", "",
		"fleet registry base URL to discover workers from (any locd serves one); re-polled mid-run for joiners")
	discoverEvery := fs.Duration("discover-interval", 0,
		"registry re-poll period with -discover (0 = default)")
	reuse := fs.Bool("reuse", true,
		"adopt the fleet's cached results and ranges (of any trial count) and run only the gaps; -reuse=false forces a cold run")
	ciTarget := fs.Float64("ci-target", 0,
		"auto-trials mode: double the trial count until the 95% CI half-width of the stopping metric is at most this (scenario jobs; overrides nothing when 0)")
	ciMetric := fs.String("ci-metric", "",
		"stopping metric for -ci-target (default: the report's headline metric)")
	stall := fs.Duration("stall-timeout", 0,
		"event-stream silence before a range is hedged onto another worker (0 = default)")
	specFile := fs.String("spec", "", "JSON job-spec file to execute (one object or an array)")
	kind := fs.String("kind", "", `job kind for -id: "figure" or "scenario"`)
	id := fs.String("id", "", "job id to run (an experiment ID or scenario name)")
	seed := fs.Int64("seed", 1, "base random seed")
	trials := fs.Int("trials", 0, "trial-count override (scenario jobs only)")
	shardSize := fs.Int("shard-size", 0, "shard-size override (scenario jobs only)")
	var pf params.FlagValue
	fs.Var(&pf, "param", "job parameter as name=value (repeatable; parameterized factories and experiments only)")
	asJSON := fs.Bool("json", false, "emit results as a JSON array (figures and reports, naked)")
	progress := fs.Bool("progress", true,
		"print aggregate trial progress and a live per-worker scoreboard to stderr")
	traceFile := fs.String("trace", "",
		"write the run's span tree (coordinator ranges, worker jobs, engine shards) as Chrome trace_event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	workers := coord.ParseWorkers(*workersFlag)
	if len(workers) == 0 && *discover == "" {
		return fmt.Errorf("no workers: -workers http://host:8090[,http://host2:8090] or -discover http://registry:8090 is required")
	}
	specs, err := buildSpecs(*specFile, *kind, *id, *seed, *trials, *shardSize, pf.M)
	if err != nil {
		return err
	}
	if *ciTarget > 0 {
		if *specFile != "" {
			return fmt.Errorf("-ci-target cannot be combined with a spec file; put auto_trials in the spec instead")
		}
		for i := range specs {
			specs[i].AutoTrials = &spec.AutoTrials{CITarget: *ciTarget, Metric: *ciMetric}
			if err := specs[i].Validate(); err != nil {
				return err
			}
		}
	}

	// One tracer spans the whole invocation: each job's coordinator spans
	// (and the worker subtrees grafted under them) accumulate into one
	// Chrome trace file.
	ctx := context.Background()
	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}

	var results []json.RawMessage
	for _, sp := range specs {
		opts := coord.Options{
			Workers:          workers,
			Discover:         *discover,
			DiscoverInterval: *discoverEvery,
			Reuse:            *reuse,
			StallTimeout:     *stall,
			Warnings:         errOut,
		}
		var sb *coord.Scoreboard
		if *progress && !*asJSON {
			sb = coord.NewScoreboard(errOut, sp.ID)
			opts.OnProgress = sb.Progress
			opts.OnScoreboard = sb.Update
		}
		start := time.Now()
		// ExecuteAuto delegates to Execute for fixed-count specs, so one call
		// covers both modes.
		val, st, err := coord.ExecuteAuto(ctx, sp, opts)
		sb.Final()
		if err != nil {
			return err
		}
		if *asJSON {
			raw, err := nakedResult(val)
			if err != nil {
				return err
			}
			results = append(results, raw)
			continue
		}
		switch {
		case val.Figure != nil:
			fmt.Fprint(out, val.Figure.Render())
		case val.Report != nil:
			val.Report.WriteSummary(out, fmt.Sprintf("%d workers, %.2fs",
				val.Report.Workers, val.Report.ElapsedSeconds))
		default:
			return fmt.Errorf("%s: coordinator returned no figure or report", sp.ID)
		}
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
			st.Ranges, st.Workers, st.Retries, st.Hedges, st.DedupLosses, extra,
			time.Since(start).Round(time.Millisecond))
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

// nakedResult strips the Value envelope so -json output matches the shape
// of cmd/experiments -json (figures) and cmd/scenarios -json (reports).
func nakedResult(val *spec.Value) (json.RawMessage, error) {
	switch {
	case val.Figure != nil:
		return json.Marshal(val.Figure)
	case val.Report != nil:
		return json.Marshal(val.Report)
	}
	return nil, fmt.Errorf("coordinator returned no figure or report")
}
