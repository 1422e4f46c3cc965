package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// setupReps is how many times an untraced run sets the system up; setup_s
// is the median, and the last set-ups serve the passes.
const setupReps = 5

// harness owns one run's scratch directory and HTTP client.
type harness struct {
	root   string
	seq    int
	client *wireClient
	// template is the cache directory every set-up copies (warm-mixed), or
	// "" when set-ups start from empty caches.
	template string
}

func newHarness(workDir string) (*harness, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	return &harness{root: root, client: newWireClient()}, nil
}

func (h *harness) cleanup() { _ = os.RemoveAll(h.root) }

func (h *harness) newDir(prefix string) (string, error) {
	h.seq++
	dir := filepath.Join(h.root, fmt.Sprintf("%s-%d", prefix, h.seq))
	return dir, os.MkdirAll(dir, 0o755)
}

// freshCache returns a new cache directory holding a copy of the template's
// entries. The sweep stamp stays behind, so every set-up opens the cache as
// a restarted daemon does after an hour or more, sweep included.
func (h *harness) freshCache() (string, error) {
	dir, err := h.newDir("cache")
	if err != nil || h.template == "" {
		return dir, err
	}
	entries, err := filepath.Glob(filepath.Join(h.template, "*.json"))
	if err != nil {
		return "", err
	}
	for _, path := range entries {
		b, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), b, 0o644); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// setUp starts the workload's system over fresh caches; only the start
// itself (servers, cache open, warm-up) is timed, not copying the caches.
// The time is in reference milliseconds.
func (h *harness) setUp(w workload) (system, float64, error) {
	dirs := make([]string, w.caches)
	for i := range dirs {
		d, err := h.freshCache()
		if err != nil {
			return nil, 0, err
		}
		dirs[i] = d
	}
	before := calibrate()
	start := time.Now()
	sys, err := w.start(h, dirs)
	wall := time.Since(start)
	return sys, refMS(wall, (before+calibrate())/2), err
}

// sample is one completed job of a phase.
type sample struct {
	job job
	out outcome
	// latency is the job's wall time, and cal the calibration kernel's time
	// averaged over its runs on the same client just before and just after
	// the job.
	latency, cal time.Duration
}

func (s sample) refMS() float64 { return refMS(s.latency, s.cal) }

// phase is one closed-loop run of a queue.
type phase struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration
}

// runPhase drives the whole queue in a closed loop: each client submits its
// next job only when its previous one returned and the calibration kernel
// has run once in between.
func runPhase(ctx context.Context, sys system, q []job, clients int) phase {
	var (
		next atomic.Int64
		mu   sync.Mutex
		ph   phase
		wg   sync.WaitGroup
	)
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			before := calibrate()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(q) {
					return
				}
				jctx, span := obs.Start(ctx, "bench.job")
				if span != nil {
					span.SetAttr("class", q[i].class).SetAttr("index", i)
				}
				t0 := time.Now()
				out := sys.do(jctx, q[i].spec)
				lat := time.Since(t0)
				span.End()
				after := calibrate()
				mu.Lock()
				ph.samples = append(ph.samples, sample{job: q[i], out: out, latency: lat, cal: (before + after) / 2})
				mu.Unlock()
				before = after
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	sort.Slice(ph.samples, func(a, b int) bool { return ph.samples[a].job.index < ph.samples[b].job.index })
	return ph
}

// busyCal is the calibration kernel's time over a phase, averaged with each
// job's latency as its weight: the host's speed while the work ran.
func (ph phase) busyCal() time.Duration {
	var num, den float64
	for _, s := range ph.samples {
		num += float64(s.latency) * float64(s.cal)
		den += float64(s.latency)
	}
	return time.Duration(num / den)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// verdict is the verifier's account of one phase.
type verdict struct {
	attempted, failed, mismatches int
	notes                         []string
}

func (v *verdict) merge(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.mismatches += o.mismatches
	for _, n := range o.notes {
		if len(v.notes) < 5 {
			v.notes = append(v.notes, n)
		}
	}
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.notes) < 5 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// verify checks every job of a phase: errors fail it; a hit must come from
// the cache with the value captured when the cache was populated; an
// extension must reuse its cached prefix; and every tenth other job is
// recomputed without a cache and compared byte for byte.
func verify(ph phase, ref *reference) verdict {
	v := verdict{attempted: len(ph.samples)}
	var recheck []sample
	for _, s := range ph.samples {
		j, o := s.job, s.out
		switch {
		case o.err != nil:
			v.fail("job %d (%s seed %d): %v", j.index, j.spec.ID, j.spec.Seed, o.err)
		case j.class == classHit && !o.cached:
			v.fail("job %d: hit not served from the cache", j.index)
		case j.class == classExtend && o.reused != prefixTrials:
			v.fail("job %d: extension reused %d trials, want %d", j.index, o.reused, prefixTrials)
		case j.class == classHit:
			v.compare(j, o.val, j.want)
		case j.index%10 == 0:
			recheck = append(recheck, s)
		}
	}
	specs := make([]spec.JobSpec, len(recheck))
	for i, s := range recheck {
		specs[i] = s.job.spec
	}
	if err := ref.compute(specs); err != nil {
		v.fail("reference runs: %v", err)
		return v
	}
	for _, s := range recheck {
		v.compare(s.job, s.out.val, ref.memo[s.job.spec.Hash()])
	}
	return v
}

func (v *verdict) compare(j job, got *spec.Value, want []byte) {
	if !bytes.Equal(canonical(got), want) {
		v.mismatches++
		v.fail("job %d (%s seed %d): result differs from the reference", j.index, j.spec.ID, j.spec.Seed)
	}
}

// reference recomputes jobs in a session without a cache, once per spec.
type reference struct {
	sess *run.Session
	memo map[string][]byte // spec hash → canonical result
}

func newReference() (*reference, error) {
	sess, err := run.NewSession(run.Options{NoCache: true})
	if err != nil {
		return nil, err
	}
	return &reference{sess: sess, memo: map[string][]byte{}}, nil
}

// compute fills the memo for every spec it lacks, running them side by
// side on all CPUs.
func (r *reference) compute(specs []spec.JobSpec) error {
	var todo []spec.JobSpec
	for _, sp := range specs {
		if _, ok := r.memo[sp.Hash()]; !ok {
			todo = append(todo, sp)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	resolved, err := spec.ResolveAll(todo)
	if err != nil {
		return err
	}
	for i, o := range run.ExecuteAll(r.sess, resolved, nil) {
		if o.Err != nil {
			return fmt.Errorf("%s seed %d: %w", o.Spec.ID, o.Spec.Seed, o.Err)
		}
		r.memo[todo[i].Hash()] = canonical(o.Result)
	}
	return nil
}

// canonical is a result's bytes without its execution metadata (worker
// count, wall time), the form two executions of one spec must agree on.
func canonical(v *spec.Value) []byte {
	if v == nil {
		return nil
	}
	v.ClearExecutionMeta()
	b, err := json.Marshal(v)
	if err != nil {
		return []byte("unencodable: " + err.Error())
	}
	return b
}

// runWorkload runs one workload in this process.
func runWorkload(cfg config, w workload, stderr io.Writer) (*result, error) {
	if n := runtime.NumCPU(); w.clients > n {
		return nil, fmt.Errorf("refusing %d clients on %d CPUs: load must not oversubscribe the machine", w.clients, n)
	}
	h, err := newHarness(cfg.workDir)
	if err != nil {
		return nil, err
	}
	defer h.cleanup()
	q := w.queue(cfg.seed)
	if n := jobCount(cfg, w); n < len(q) {
		q = q[:n]
	}
	if w.prepare != nil {
		t0 := time.Now()
		if err := w.prepare(h, q); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		fmt.Fprintf(stderr, "locbench: %s: inputs prepared in %.1fs\n", w.name, time.Since(t0).Seconds())
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Env: newEnvironment(cfg, w), Traced: cfg.trace}
	if cfg.trace {
		err = traced(cfg, w, h, q, ref, res)
	} else {
		err = endToEnd(w, h, q, ref, res)
	}
	return res, err
}

// endToEnd is the untraced run: set-ups, the passes over the job list, and
// the end-to-end metrics.
func endToEnd(w workload, h *harness, q []job, ref *reference, res *result) error {
	var setups []float64
	for i := 0; i < setupReps-w.passes; i++ {
		sys, ms, err := h.setUp(w)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		sys.close()
		setups = append(setups, ms)
	}
	var phs []phase
	for p := 0; p < w.passes; p++ {
		sys, ms, err := h.setUp(w)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, ms)
		phs = append(phs, runPhase(context.Background(), sys, q, w.clients))
		sys.close()
	}
	// Before verification, whose reference runs are no part of the workload.
	rss := maxRSSMiB()
	var v verdict
	for _, ph := range phs {
		v.merge(verify(ph, ref))
	}
	best := bestPerJob(phs, sample.refMS)
	if len(best) == 0 {
		return fmt.Errorf("no job completed: %s", strings.Join(v.notes, "; "))
	}
	done := float64(len(best))
	var walls, cpus, wallCPUs, cals []float64
	for _, ph := range phs {
		walls = append(walls, ph.wall.Seconds())
		perJob := ph.cpu / time.Duration(len(ph.samples))
		cpus = append(cpus, refMS(perJob, ph.busyCal()))
		wallCPUs = append(wallCPUs, float64(perJob)/float64(time.Millisecond))
		for _, s := range ph.samples {
			cals = append(cals, float64(s.cal)/float64(time.Millisecond))
		}
	}
	bestWall := bestPerJob(phs, func(s sample) float64 { return float64(s.latency) / float64(time.Millisecond) })

	res.Attempted, res.Failed, res.Correct = v.attempted, v.failed, v.mismatches == 0
	res.Notes = append(res.Notes, fmt.Sprintf("%d jobs × %d passes (%d verified ok) by %d client(s); pass walls %s s; set-ups %s ref-ms",
		len(q), len(phs), v.attempted-v.failed, w.clients, formatList(walls), formatList(setups)))
	res.Notes = append(res.Notes, v.notes...)
	vals := map[string]float64{
		"setup_s":    median(setups) / 1000,
		"job_p50_ms": percentile(best, 50),
		"job_p90_ms": percentile(best, 90),
		// A closed loop of c clients completes c jobs per mean job time.
		"jobs_per_s":     float64(w.clients) * 1000 * done / sumOrNaN(best),
		"cpu_ms_per_job": median(cpus),
		"max_rss_mb":     rss,
	}
	for _, d := range endToEndDefs {
		res.add(d.name, vals[d.name], d.unit)
	}
	res.addInfo("failed_frac", float64(v.failed)/float64(v.attempted), "ratio")
	// The same quantities in plain wall-clock time, for people: they move
	// with the host's speed as much as with the program's.
	res.addInfo("wall.job_p50_ms", percentile(bestWall, 50), "ms")
	res.addInfo("wall.job_p90_ms", percentile(bestWall, 90), "ms")
	res.addInfo("wall.jobs_per_s", float64(len(q))/median(walls), "1/s")
	res.addInfo("wall.cpu_ms_per_job", median(wallCPUs), "ms")
	res.addInfo("wall.calibration_ms", median(cals), "ms")
	return nil
}

// bestPerJob is, for each job that completed without error in every pass,
// the lowest value of f over its passes.
func bestPerJob(phs []phase, f func(sample) float64) []float64 {
	best := map[int]float64{}
	failed := map[int]bool{}
	for _, ph := range phs {
		for _, s := range ph.samples {
			if s.out.err != nil {
				failed[s.job.index] = true
			} else if b, ok := best[s.job.index]; !ok || f(s) < b {
				best[s.job.index] = f(s)
			}
		}
	}
	var out []float64
	for i, x := range best {
		if !failed[i] {
			out = append(out, x)
		}
	}
	return out
}

// endToEndDefs are the metrics a user of the system sees, which every
// untraced run reports (bench/README.md defines each).
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "job_p50_ms", unit: "ms", better: "lower"},
	{name: "job_p90_ms", unit: "ms", better: "lower"},
	{name: "jobs_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_ms_per_job", unit: "ms", better: "lower"},
	{name: "max_rss_mb", unit: "MiB", better: "lower"},
}

// okLatenciesMS returns the latencies of the jobs that completed without
// error, in milliseconds.
func okLatenciesMS(ph phase) []float64 {
	var out []float64
	for _, s := range ph.samples {
		if s.out.err == nil {
			out = append(out, float64(s.latency.Microseconds())/1000)
		}
	}
	return out
}

// percentile is the p-th percentile by linear interpolation between order
// statistics; NaN for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
