package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/cache"
	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/params"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/locsrv"
)

// Job classes. Cold workloads run only cold jobs; warm-mixed interleaves
// the other three.
const (
	classCold   = "cold"
	classHit    = "hit"
	classMiss   = "miss"
	classExtend = "extend"
)

// job is one entry of a workload's queue.
type job struct {
	index int
	class string
	spec  spec.JobSpec
	// want is the canonical result a hit must return, captured when the
	// cache was populated.
	want []byte
}

// A workload is one traffic mix: the seeded job queue, how many clients
// drive it in a closed loop, and how the system under it is started.
type workload struct {
	name    string
	clients int
	// caches is how many fresh cache directories one set-up needs.
	caches int
	// rate is the workload's closed-loop jobs per second at reference speed
	// (speed.go). An untraced run of -seconds S runs rate × S / passes jobs
	// per pass, so its passes take about S in all, and the work is the same
	// on every commit.
	rate float64
	// passes is how many times an untraced run executes its job list, each
	// time on a freshly set-up system; a job's time is its fastest pass. The
	// calibration follows the host's speed from job to job but not within
	// a job, so a short job, or one spread over both CPUs, that ran into a
	// slow stretch still reads slow; its fastest of three passes, seconds
	// apart, almost never does. One pass suits long single-CPU jobs, where
	// what varies most from seed to seed is which jobs the run draws, so
	// three times the jobs steady the numbers more than three passes.
	passes int
	// traceJobs is the fixed job count of a traced run, so its work counts
	// repeat exactly at one seed.
	traceJobs int
	// queue returns the job list in submission order; a run takes the jobs
	// from its front.
	queue func(seed int64) []job
	// prepare generates, once per run and untimed, the cache population
	// every set-up starts from; nil when set-up starts from empty caches.
	prepare func(h *harness, q []job) error
	// start brings the system up over the given cache directories and warms
	// it: the timed set-up.
	start func(h *harness, dirs []string) (system, error)
}

// maxQueue bounds the cold workloads' job lists; a run never gets near it.
const maxQueue = 4000

// warmupSeed seeds the warm-up jobs of every set-up. It is fixed, so
// set-up does the same work at every workload seed.
const warmupSeed = 900001

func workloads() []workload {
	return []workload{
		{
			// The LSS kernel (core + mat) does almost all the work; the
			// session, cache and wire almost none. A kernel change shows here,
			// and a cache or wire change must not. Two clients of one-trial
			// jobs keep both CPUs on the kernel and give the most jobs a run,
			// where one client of two-trial jobs idles a CPU while the slower
			// trial finishes.
			name: "lss-cold", clients: 2, caches: 1, rate: 12, passes: 1, traceJobs: 40,
			queue: func(seed int64) []job { return coldQueue(seed, "lss", maxQueue, lssSpec) },
			start: func(h *harness, dirs []string) (system, error) {
				sess, err := run.NewSession(run.Options{CacheDir: dirs[0]})
				if err != nil {
					return nil, err
				}
				return warm(&sessionSystem{sess: sess, dir: dirs[0]}, lssSpec(warmupSeed))
			},
		},
		{
			// Multilateration kernel, engine shard pool, the session's cold
			// path (planner probe plus two Puts) and JSON over the wire.
			name: "grid-wire-cold", clients: 1, caches: 1, rate: 10, passes: 3, traceJobs: 60,
			queue: func(seed int64) []job { return coldQueue(seed, "grid", maxQueue, gridSpec) },
			start: func(h *harness, dirs []string) (system, error) {
				ws, err := startWire(h, dirs[0])
				if err != nil {
					return nil, err
				}
				return warm(ws, gridSpec(warmupSeed))
			},
		},
		{
			// run, cache and locsrv do most of the work and the kernels
			// little: hits, cold misses and prefix extensions side by side
			// over a cache that also holds stale-build entries every range
			// probe must read. Its rate gives 100 jobs a pass, five whole
			// queue blocks, at the default -seconds.
			name: "warm-mixed", clients: 2, caches: 1, rate: 18.75, passes: 3, traceJobs: 150,
			queue:   warmQueue,
			prepare: prepareWarm,
			start: func(h *harness, dirs []string) (system, error) {
				ws, err := startWire(h, dirs[0])
				if err != nil {
					return nil, err
				}
				return warm(ws, mobilitySpec(warmupSeed, hitTrials), mobilitySpec(warmupSeed+1, missTrials))
			},
		},
		{
			// The grid-wire-cold jobs through the locc coordinator over two
			// workers: compute matches grid-wire-cold, so the difference is the
			// coord layer (split, per-range submit and stream, worker cache
			// probes, partial fetch and decode, merge).
			name: "fleet-cold", clients: 1, caches: 2, rate: 9.5, passes: 3, traceJobs: 60,
			queue: func(seed int64) []job { return coldQueue(seed, "grid", maxQueue, gridSpec) },
			start: func(h *harness, dirs []string) (system, error) {
				fs, err := startFleet(h, dirs)
				if err != nil {
					return nil, err
				}
				return warm(fs, gridSpec(warmupSeed))
			},
		},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jobCount is how many jobs a run executes: per pass in an untraced run.
func jobCount(cfg config, w workload) int {
	switch {
	case cfg.jobs > 0:
		return cfg.jobs
	case cfg.trace:
		return w.traceJobs
	}
	return max(1, int(math.Round(w.rate*float64(cfg.seconds)/float64(w.passes))))
}

func lssSpec(seed int64) spec.JobSpec {
	return spec.JobSpec{Kind: spec.KindScenario, ID: "lss-town-constrained", Seed: seed, Trials: 1, ShardSize: 1}
}

func gridSpec(seed int64) spec.JobSpec {
	return spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-grid", Seed: seed, Trials: 48, ShardSize: 8,
		Params: params.Map{"rows": params.Num(14), "cols": params.Num(14)}}
}

func mobilitySpec(seed int64, trials int) spec.JobSpec {
	return spec.JobSpec{Kind: spec.KindScenario, ID: "mobility-waypoint", Seed: seed, Trials: trials}
}

// seedStream returns a generator of distinct job seeds for one named
// stream of a run seed. Distinct streams are independent, and one stream
// never repeats a seed, so no two cold jobs share a cache key.
func seedStream(seed int64, stream string) func() int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	seen := map[int64]bool{warmupSeed: true, warmupSeed + 1: true}
	return func() int64 {
		for {
			s := rng.Int63n(1 << 31)
			if !seen[s] {
				seen[s] = true
				return s
			}
		}
	}
}

func coldQueue(seed int64, stream string, n int, mk func(int64) spec.JobSpec) []job {
	next := seedStream(seed, stream)
	q := make([]job, n)
	for i := range q {
		q[i] = job{index: i, class: classCold, spec: mk(next())}
	}
	return q
}

// The warm-mixed queue: warmQueueLen requests in blocks of warmBlock, each
// a seeded shuffle of 60% hits (each cached spec requested once, so a disk
// hit rather than locd's in-memory job table), 25% small cold misses and
// 15% extensions of a cached prefixTrials-trial run to extendTrials. Whole
// blocks keep the mix exact in every run of a multiple of warmBlock jobs,
// so the mix does not vary from seed to seed.
const (
	warmQueueLen = 800
	warmBlock    = 20
	hitTrials    = 2
	missTrials   = 8
	prefixTrials = 32
	extendTrials = 64
)

func warmQueue(seed int64) []job {
	rng := rand.New(rand.NewSource(seed))
	next := seedStream(seed, "warm")
	trials := map[string]int{classHit: hitTrials, classMiss: missTrials, classExtend: extendTrials}
	q := make([]job, 0, warmQueueLen)
	for len(q) < warmQueueLen {
		block := make([]string, warmBlock)
		for i := range block {
			switch {
			case i < warmBlock*60/100:
				block[i] = classHit
			case i < warmBlock*85/100:
				block[i] = classMiss
			default:
				block[i] = classExtend
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, c := range block {
			q = append(q, job{index: len(q), class: c, spec: mobilitySpec(next(), trials[c])})
		}
	}
	return q
}

// Stale-build filler for the warm-mixed cache: entries written under a
// foreign binary fingerprint, as a cache that outlived rebuilds holds
// them. The running binary can never serve them, but every range probe
// reads them.
const (
	staleFingerprint = "0123456789abcdef"
	staleEntries     = 100
)

// prepareWarm populates the template cache every warm-mixed set-up copies:
// the hit specs (capturing each result for verification), the prefixes the
// extensions reuse, the warm-up hit, and the stale-build filler.
func prepareWarm(h *harness, q []job) error {
	if cache.Fingerprint() == staleFingerprint {
		return fmt.Errorf("the running binary's fingerprint equals the filler's")
	}
	dir, err := h.newDir("template")
	if err != nil {
		return err
	}
	specs := []spec.JobSpec{mobilitySpec(warmupSeed, hitTrials)}
	hits := map[int]int{} // queue index → index in specs
	for i, j := range q {
		switch j.class {
		case classHit:
			hits[i] = len(specs)
			specs = append(specs, j.spec)
		case classExtend:
			sp := j.spec
			sp.Trials = prefixTrials
			specs = append(specs, sp)
		}
	}
	vals, err := populate(h, dir, specs)
	if err != nil {
		return err
	}
	for i, k := range hits {
		q[i].want = canonical(vals[k])
	}

	// One real 256-shard partial and one real report, each stored under
	// staleEntries foreign keys.
	fill, err := spec.Resolve(mobilitySpec(warmupSeed, 2*256))
	if err != nil {
		return err
	}
	runner, err := engine.NewRunner(engine.Config{Trials: 2 * 256, ShardSize: 1, Seed: warmupSeed, Budget: engine.SharedBudget()})
	if err != nil {
		return err
	}
	part, err := engine.RunCampaignPartial(runner, fill.Campaign, 0, 256)
	if err != nil {
		return err
	}
	c, err := cache.Open(dir)
	if err != nil {
		return err
	}
	report := vals[0]
	for i := 0; i < staleEntries; i++ {
		k := cache.Key{Kind: spec.KindScenario, Scenario: fill.Campaign.Scenario.Name, Seed: int64(i), Trials: 2 * 256,
			ShardSize: 1, Fingerprint: staleFingerprint, RangeLo: 0, RangeHi: 256, Params: string(fill.Params.Canonical())}
		if err := c.Put(k, &spec.Value{Partial: part}); err != nil {
			return err
		}
		k.Trials, k.ShardSize, k.RangeHi = hitTrials, 0, 0
		if err := c.Put(k, report); err != nil {
			return err
		}
	}
	h.template = dir
	return nil
}

// populateChunk is how many specs share a directory while the template is
// populated. Every planner probe reads every entry in its directory, so
// filling one directory spec by spec takes quadratic time; chunks keep it
// linear, and moving their entries together gives the same files.
const populateChunk = 32

// populate executes specs with a cache, moves every entry they stored into
// dir, and returns their results in order.
func populate(h *harness, dir string, specs []spec.JobSpec) ([]*spec.Value, error) {
	var vals []*spec.Value
	for lo := 0; lo < len(specs); lo += populateChunk {
		chunk, err := spec.ResolveAll(specs[lo:min(lo+populateChunk, len(specs))])
		if err != nil {
			return nil, err
		}
		tmp, err := h.newDir("populate")
		if err != nil {
			return nil, err
		}
		sess, err := run.NewSession(run.Options{CacheDir: tmp})
		if err != nil {
			return nil, err
		}
		for _, o := range run.ExecuteAll(sess, chunk, nil) {
			if o.Err != nil {
				return nil, fmt.Errorf("populate %s seed %d: %w", o.Spec.ID, o.Spec.Seed, o.Err)
			}
			vals = append(vals, o.Result)
		}
		entries, err := filepath.Glob(filepath.Join(tmp, "*.json"))
		if err != nil {
			return nil, err
		}
		for _, path := range entries {
			if err := os.Rename(path, filepath.Join(dir, filepath.Base(path))); err != nil {
				return nil, err
			}
		}
	}
	return vals, nil
}

// outcome is what driving one job produced.
type outcome struct {
	val    *spec.Value
	cached bool
	reused int
	stats  *coord.Stats
	err    error
}

// system is the program under test as one workload drives it.
type system interface {
	do(ctx context.Context, sp spec.JobSpec) outcome
	cacheDirs() []string
	close()
}

// warm runs the set-up's warm-up jobs, closing the system if one fails.
func warm(s system, specs ...spec.JobSpec) (system, error) {
	for _, sp := range specs {
		if o := s.do(context.Background(), sp); o.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", sp.ID, o.err)
		}
	}
	return s, nil
}

// sessionSystem drives an in-process run.Session directly.
type sessionSystem struct {
	sess *run.Session
	dir  string
}

func (s *sessionSystem) do(ctx context.Context, sp spec.JobSpec) outcome {
	val, info, err := run.ExecuteSpecContext(ctx, s.sess, sp)
	return outcome{val: val, cached: info.Cached, reused: info.ReusedTrials, err: err}
}

func (s *sessionSystem) cacheDirs() []string { return []string{s.dir} }
func (s *sessionSystem) close()              {}

// wireSystem is one locd service on a loopback port, driven over HTTP.
type wireSystem struct {
	srv    *locsrv.Server
	ts     *httptest.Server
	dir    string
	client *wireClient
}

func startWire(h *harness, dir string) (*wireSystem, error) {
	srv, err := locsrv.New(run.Options{CacheDir: dir})
	if err != nil {
		return nil, err
	}
	return &wireSystem{srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir, client: h.client}, nil
}

func (s *wireSystem) do(ctx context.Context, sp spec.JobSpec) outcome {
	return s.client.run(ctx, s.ts.URL, sp)
}

func (s *wireSystem) cacheDirs() []string { return []string{s.dir} }

func (s *wireSystem) close() {
	s.srv.Close()
	s.client.http.CloseIdleConnections()
	s.ts.Close()
}

// fleetSystem is the locc coordinator over in-process locd workers, with
// locc's defaults: dynamic ranges with stealing and cross-run reuse.
type fleetSystem struct {
	workers []*wireSystem
	opts    coord.Options
}

func startFleet(h *harness, dirs []string) (*fleetSystem, error) {
	// Retries, hedges and steals are counted in coord.Stats; their warning
	// lines would only drown the benchmark's output.
	f := &fleetSystem{opts: coord.Options{Reuse: true, Client: h.client.http, Warnings: io.Discard}}
	for _, d := range dirs {
		ws, err := startWire(h, d)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, ws)
		f.opts.Workers = append(f.opts.Workers, ws.ts.URL)
	}
	return f, nil
}

func (f *fleetSystem) do(ctx context.Context, sp spec.JobSpec) outcome {
	val, st, err := coord.Execute(ctx, sp, f.opts)
	return outcome{val: val, stats: &st, err: err}
}

func (f *fleetSystem) cacheDirs() []string {
	var dirs []string
	for _, w := range f.workers {
		dirs = append(dirs, w.dir)
	}
	return dirs
}

func (f *fleetSystem) close() {
	for _, w := range f.workers {
		w.close()
	}
}
