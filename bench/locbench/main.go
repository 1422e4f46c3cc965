// Command locbench is the repository's end-to-end benchmark. Four
// workloads drive the localization system through its three front doors —
// the in-process run.Session, the locd HTTP service (locsrv) and the locc
// fleet coordinator (coord) — and time every job from submission until its
// decoded, verified result is in hand.
//
// Run every workload, each in its own child process, from the repository
// root:
//
//	bash bench/run.sh -seed 1
//
// Run one workload in this process (the form BENCHMARK.json names):
//
//	bash bench/run.sh --workload lss-cold --seed 1 --seconds 16 --trace 0
//
// A run prints one "workload metric value unit" line per metric and, as
// its last line, a JSON object {correct, attempted, failed, metrics}. With
// -trace 1 the run is a traced run: it reports the per-layer metrics
// instead, and writes a Chrome trace and a layer table per workload into
// -trace-dir. See bench/README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	jobs     int
	trace    bool
	traceDir string
	workDir  string
	asJSON   bool
}

func main() {
	os.Exit(locbench(os.Args[1:], os.Stdout, os.Stderr))
}

// locbench parses the flags and runs either one workload in this process or
// every workload in child processes; it returns the exit code.
func locbench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("locbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "",
		"run one workload in this process ("+strings.Join(workloadNames(), ", ")+"); empty runs each in a child process")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: every job seed and the queue order derive from it (1 = development, 7 = held out)")
	fs.IntVar(&cfg.seconds, "seconds", 16, "size of an untraced run: its passes hold about this many seconds of work at reference speed")
	fs.IntVar(&cfg.jobs, "jobs", 0, "run exactly this many jobs per pass instead of sizing the run by -seconds (0 = by -seconds)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: report per-layer metrics, Chrome traces and the ledger")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its Chrome traces and layer tables")
	fs.StringVar(&cfg.workDir, "work-dir", ".bench_build", "scratch directory for caches and stored results")
	fs.BoolVar(&cfg.asJSON, "json", false, "print one JSON document with every workload's result instead of text lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "locbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	switch {
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "locbench: -trace wants 0 or 1, got %d\n", trace)
		return 2
	case cfg.seconds < 1:
		fmt.Fprintf(stderr, "locbench: -seconds must be at least 1\n")
		return 2
	case cfg.jobs < 0:
		fmt.Fprintf(stderr, "locbench: negative -jobs\n")
		return 2
	}
	cfg.trace = trace == 1

	if cfg.workload == "" {
		return runAll(cfg, args, stdout, stderr)
	}
	w, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "locbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(cfg, w, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "locbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := storeResult(cfg, res); err != nil {
		fmt.Fprintf(stderr, "locbench: %v\n", err)
		return 1
	}
	if cfg.asJSON {
		writeDocument(stdout, []*result{res})
	} else {
		writeLines(stdout, res)
	}
	line, _ := json.Marshal(res.summaryLine())
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.ok() {
		return 1
	}
	return 0
}

// result is one workload run's outcome: the environment it ran in, its
// metrics in print order, and the job accounting the verifier produced.
type result struct {
	Workload  string      `json:"workload"`
	Env       environment `json:"env"`
	Traced    bool        `json:"traced"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Correct   bool        `json:"correct"`
	Metrics   []metric    `json:"metrics"`
	Notes     []string    `json:"notes,omitempty"`
	Layers    []layerRow  `json:"layers,omitempty"`
}

// metric is one named measurement. Summary marks the metrics that go in
// the final JSON line (the end-to-end set untraced, the per-layer set
// traced); the others are printed for people only.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Summary bool    `json:"-"`
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Summary: true})
}

func (r *result) addInfo(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
}

// ok reports whether the run counts: every job completed and verified.
func (r *result) ok() bool { return r.Correct && r.Failed == 0 }

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

func (r *result) summaryLine() summaryLine {
	out := summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]summaryValue{}}
	for _, m := range r.Metrics {
		if m.Summary {
			out.Metrics[m.Name] = summaryValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}

// writeLines prints the environment record, notes and one line per metric.
func writeLines(w io.Writer, r *result) {
	fmt.Fprintf(w, "# %s\n", r.Env.line())
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s: %s\n", r.Workload, n)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
}

func writeDocument(w io.Writer, rs []*result) {
	b, _ := json.MarshalIndent(map[string]any{"results": rs}, "", "  ")
	fmt.Fprintf(w, "%s\n", b)
}

// resultPath is where a run's full record is stored: one file per
// workload, seed and mode under the work directory.
func resultPath(cfg config, workload string) string {
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	return filepath.Join(cfg.workDir, "results", fmt.Sprintf("%s-seed%d-%s.json", workload, cfg.seed, mode))
}

func storeResult(cfg config, r *result) error {
	path := resultPath(cfg, r.Workload)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store result: %w", err)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("store result: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("store result: %w", err)
	}
	return nil
}

// runAll re-runs this binary once per workload, so each starts with a
// clean heap, RSS high-water mark, metric registry and worker budget. It
// relays their lines, or with -json gathers their stored records into one
// document.
func runAll(cfg config, args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "locbench: %v\n", err)
		return 1
	}
	code := 0
	var results []*result
	for _, w := range workloads() {
		cmd := exec.Command(exe, append(append([]string{}, args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if cfg.asJSON {
			cmd.Stdout = io.Discard
		}
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "locbench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		if cfg.asJSON {
			b, err := os.ReadFile(resultPath(cfg, w.name))
			r := new(result)
			if err == nil {
				err = json.Unmarshal(b, r)
			}
			if err != nil {
				fmt.Fprintf(stderr, "locbench: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			results = append(results, r)
		}
	}
	if cfg.asJSON {
		writeDocument(stdout, results)
	}
	return code
}
