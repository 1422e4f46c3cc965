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
// -progress (on by default) streams each job's trial counter to stderr with
// the per-worker scoreboard beneath it (ranges won, trials, trials/sec,
// retries, stall hedges, steals, reused trials): repainted live on a
// terminal; elsewhere quarter-milestone lines, with the scoreboard printed
// once when the job finishes. Each -ci-target round is its own job, with
// its own line and scoreboard. -trace writes the run's
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
//
// Text output ends each figure or report in one status line, the one
// cmd/experiments and cmd/scenarios print under -workers too:
//
//	(distributed: N ranges over W workers, R retries (H hedged, D dedup losses)[, S steals][, fleet +J/-L][, reused T trials in K ranges], ELAPSED)
//
// -json prints one array of bare figures and reports, like the other two
// CLIs. -seed, -trials, -shard-size and -param are rejected beside -spec.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"resilientloc/internal/engine/params"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/front"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "locc:", err)
		os.Exit(1)
	}
}

func realMain(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("locc", flag.ContinueOnError)
	var cli front.CLI
	cli.Register(fs)
	fs.DurationVar(&cli.Fleet.DiscoverInterval, "discover-interval", 0,
		"registry re-poll period with -discover (0 = default)")
	fs.BoolVar(&cli.Fleet.Reuse, "reuse", true,
		"adopt the fleet's cached results and ranges (of any trial count) and run only the gaps; -reuse=false forces a cold run")
	fs.Float64Var(&cli.Auto.CITarget, "ci-target", 0,
		"auto-trials mode: double the trial count until the 95% CI half-width of the stopping metric is at most this (scenario jobs; overrides nothing when 0)")
	fs.StringVar(&cli.Auto.Metric, "ci-metric", "",
		"stopping metric for -ci-target (default: the report's headline metric)")
	fs.DurationVar(&cli.Fleet.StallTimeout, "stall-timeout", 0,
		"event-stream silence before a range is hedged onto another worker (0 = default)")
	kind := fs.String("kind", "", `job kind for -id: "figure" or "scenario"`)
	id := fs.String("id", "", "job id to run (an experiment ID or scenario name)")
	seed := fs.Int64("seed", 1, "base random seed")
	trials := fs.Int("trials", 0, "trial-count override (scenario jobs only)")
	shardSize := fs.Int("shard-size", 0, "shard-size override (scenario jobs only)")
	var pf params.FlagValue
	fs.Var(&pf, "param", "job parameter as name=value (repeatable; parameterized factories and experiments only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(cli.Fleet.Workers) == 0 && cli.Fleet.Discover == "" {
		return fmt.Errorf("no workers: -workers http://host:8090[,http://host2:8090] or -discover http://registry:8090 is required")
	}
	// A single job from -kind/-id plus the parameter flags; any -param
	// selections become part of the job's content address exactly as in a
	// spec file's params object.
	return cli.Run(fs, out, errOut, "", func() ([]spec.JobSpec, error) {
		if *id == "" {
			return nil, fmt.Errorf("nothing to run: give -spec file.json or -kind KIND -id ID")
		}
		sp := spec.JobSpec{Kind: *kind, ID: *id, Seed: *seed, Trials: *trials, ShardSize: *shardSize}
		if len(pf.M) > 0 {
			sp.Params = pf.M.Clone()
		}
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		return []spec.JobSpec{sp}, nil
	}, "kind", "id")
}
