package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// The ledger runs one reference job — multilat-grid 14×14, 256 trials,
// shard size 8 — down every path the system offers, ledgerRuns times each,
// and reports each path's median. Each row minus the row beneath it is what
// that layer adds: engine (raw compute plus merge) → session cold (planner
// probe, both cache Puts) → locd wire → locc fleet over two workers.
const (
	ledgerRuns   = 5
	ledgerSeed   = 1
	ledgerTrials = 256
)

type ledgerResult struct {
	rows    map[string]float64
	input   layerInput
	tracer  *obs.Tracer
	verdict verdict
}

func runLedger(h *harness) (*ledgerResult, error) {
	sp := gridSpec(ledgerSeed)
	sp.Trials = ledgerTrials
	half := sp
	half.Trials = ledgerTrials / 2
	job, err := spec.Resolve(sp)
	if err != nil {
		return nil, err
	}
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	led := &ledgerResult{tracer: tr, rows: map[string]float64{}}
	times := map[string][]float64{}
	var want []byte

	// check verifies one path's result against the engine path's bytes.
	check := func(path string, o outcome) {
		led.verdict.attempted++
		switch {
		case o.err != nil:
			led.verdict.fail("ledger %s: %v", path, o.err)
		case !bytes.Equal(canonical(o.val), want):
			led.verdict.mismatches++
			led.verdict.fail("ledger %s: result differs from the engine path", path)
		}
		if o.stats != nil {
			led.input.stats = append(led.input.stats, *o.stats)
		}
	}
	timed := func(row string, s system) outcome {
		t0 := time.Now()
		o := s.do(ctx, sp)
		times[row] = append(times[row], float64(time.Since(t0).Microseconds())/1000)
		check(row, o)
		return o
	}

	led.input.before = obs.Default().Snapshot()
	for i := 0; i < ledgerRuns; i++ {
		runner, err := engine.NewRunner(engine.Config{Trials: sp.Trials, ShardSize: sp.ShardSize, Seed: sp.Seed, Budget: engine.SharedBudget()})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		p, err := engine.RunCampaignPartialContext(ctx, runner, job.Campaign, 0, job.TotalTrials)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rep, err := engine.MergePartials([]*engine.Partial{p})
		if err != nil {
			return nil, err
		}
		val, err := engine.FinalizeCampaign(job.Campaign, rep)
		if err != nil {
			return nil, err
		}
		times["ledger.engine_ms"] = append(times["ledger.engine_ms"], float64(time.Since(t0).Microseconds())/1000)
		times["ledger.merge_ms"] = append(times["ledger.merge_ms"], float64(time.Since(t1).Microseconds())/1000)
		if want == nil {
			want = canonical(val)
		}
		check("ledger.engine_ms", outcome{val: val})

		dirs := make([]string, 5)
		for k := range dirs {
			if dirs[k], err = h.newDir("ledger"); err != nil {
				return nil, err
			}
		}
		sess, err := run.NewSession(run.Options{CacheDir: dirs[0]})
		if err != nil {
			return nil, err
		}
		timed("ledger.session_cold_ms", &sessionSystem{sess: sess})
		timed("ledger.session_warm_ms", &sessionSystem{sess: sess})

		if sess, err = run.NewSession(run.Options{CacheDir: dirs[1]}); err != nil {
			return nil, err
		}
		if _, _, err := run.ExecuteSpec(sess, half); err != nil {
			return nil, err
		}
		if o := timed("ledger.session_extend_ms", &sessionSystem{sess: sess}); o.err == nil && o.reused != half.Trials {
			led.verdict.fail("ledger extension reused %d trials, want %d", o.reused, half.Trials)
		}

		for _, row := range []string{"ledger.wire_cold_ms", "ledger.wire_warm_ms"} {
			// The warm row starts a new server over the cache the cold row
			// filled, so it measures a disk hit, not locd's job table.
			ws, err := startWire(h, dirs[2])
			if err != nil {
				return nil, err
			}
			timed(row, ws)
			ws.close()
		}

		fs, err := startFleet(h, dirs[3:])
		if err != nil {
			return nil, err
		}
		timed("ledger.fleet_cold_ms", fs)
		fs.close()
	}
	led.input.after = obs.Default().Snapshot()
	led.input.spans = tr.Export()
	for row, xs := range times {
		led.rows[row] = median(xs)
	}
	if len(led.rows) != 8 {
		return nil, fmt.Errorf("ledger measured %d of 8 paths", len(led.rows))
	}
	return led, nil
}
