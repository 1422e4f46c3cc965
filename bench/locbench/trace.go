package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"

	"resilientloc/internal/obs"
)

// traced is the traced run: the same fixed job list run once untraced and
// once traced, each from a fresh set-up; then the solver calls, the cache
// probe and the ledger. It reports every per-layer metric.
func traced(cfg config, w workload, h *harness, q []job, ref *reference, res *result) error {
	sys, _, err := h.setUp(w)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	plain := runPhase(context.Background(), sys, q, w.clients)
	sys.close()

	if sys, _, err = h.setUp(w); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	tr := obs.NewTracer()
	in := layerInput{before: obs.Default().Snapshot()}
	ph := runPhase(obs.WithTracer(context.Background(), tr), sys, q, w.clients)
	in.after = obs.Default().Snapshot()
	in.spans = tr.Export()
	for _, s := range ph.samples {
		if s.out.stats != nil {
			in.stats = append(in.stats, *s.out.stats)
		}
	}
	in.entries, in.bytes = dirStats(sys.cacheDirs())
	in.probeMS, err = probeCache(sys.cacheDirs()[0], ph.samples[len(ph.samples)-1].job.spec)
	sys.close()
	if err != nil {
		return fmt.Errorf("cache probe: %w", err)
	}

	v := verify(plain, ref)
	v.merge(verify(ph, ref))
	coreVals, err := coreBench(cfg.seed)
	if err != nil {
		return fmt.Errorf("solver calls: %w", err)
	}
	led, err := runLedger(h)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	v.merge(led.verdict)

	vals := layerValues(in)
	fromLedger := layerValues(led.input)
	source := map[string]string{}
	for k, x := range vals {
		source[k] = "workload"
		if math.IsNaN(x) {
			vals[k], source[k] = fromLedger[k], "ledger"
		}
	}
	for k, x := range coreVals {
		vals[k], source[k] = x, "solver calls"
	}
	for k, x := range led.rows {
		vals[k], source[k] = x, "ledger"
	}
	vals["trace.overhead_pct"] = 100 * (median(okLatenciesMS(ph))/median(okLatenciesMS(plain)) - 1)
	source["trace.overhead_pct"] = "workload"

	res.Attempted, res.Failed, res.Correct = v.attempted, v.failed, v.mismatches == 0
	res.Notes = append(res.Notes, fmt.Sprintf("%d jobs per pass (untraced %.2fs, traced %.2fs); ledger: %d runs per path",
		len(ph.samples), plain.wall.Seconds(), ph.wall.Seconds(), ledgerRuns))
	res.Notes = append(res.Notes, v.notes...)
	for _, d := range layerDefs {
		x, ok := vals[d.name]
		if !ok || math.IsNaN(x) {
			return fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		res.add(d.name, x, d.unit)
		res.Layers = append(res.Layers, layerRow{Layer: d.layer, Metric: d.name, Value: x, Unit: d.unit, Source: source[d.name], Moves: d.note})
	}
	return writeTraceFiles(cfg, w.name, tr, led.tracer, res.Layers, led.rows)
}

// layerRow is one line of a traced run's layer table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	// Source says where the value came from: the workload's traced pass,
	// the direct solver calls, or the ledger's reference job (for a layer
	// the workload never reaches, such as coord on lss-cold).
	Source string `json:"source"`
	Moves  string `json:"should_move"`
}

// writeTraceFiles writes the workload's Chrome traces and layer table.
func writeTraceFiles(cfg config, name string, tr, ledgerTr *obs.Tracer, rows []layerRow, ledger map[string]float64) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	if err := tr.WriteChromeTraceFile(filepath.Join(cfg.traceDir, name+".trace.json")); err != nil {
		return err
	}
	if err := ledgerTr.WriteChromeTraceFile(filepath.Join(cfg.traceDir, name+".ledger.trace.json")); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.traceDir, name+".layers.txt"))
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(f, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "layer\tmetric\tvalue\tunit\tsource\tshould move\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%s\t%s\t%s\n", r.Layer, r.Metric, r.Value, r.Unit, r.Source, r.Moves)
	}
	fmt.Fprintf(tw, "\nledger path\tms\tadded over the row above\t\t\t\n")
	prev := 0.0
	for _, k := range []string{"ledger.engine_ms", "ledger.session_cold_ms", "ledger.wire_cold_ms", "ledger.fleet_cold_ms"} {
		fmt.Fprintf(tw, "%s\t%.4g\t%+.4g\t\t\t\n", k, ledger[k], ledger[k]-prev)
		prev = ledger[k]
	}
	if err := tw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
