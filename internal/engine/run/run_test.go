package run_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/cache"
	"resilientloc/internal/engine/params"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
)

// fastFigs is a small cross-section of the figure suite: two single-trial
// figures and the 36-trial maxrange sweep; together with the library
// scenario below they cover every campaign shape the unified runner serves.
var fastFigs = []string{"fig11", "fig20", "maxrange"}

func figSpec(id string, seed int64) spec.JobSpec {
	return spec.JobSpec{Kind: spec.KindFigure, ID: id, Seed: seed}
}

func scenSpec(id string, seed int64, trials, shardSize int) spec.JobSpec {
	return spec.JobSpec{Kind: spec.KindScenario, ID: id, Seed: seed, Trials: trials, ShardSize: shardSize}
}

func newSession(t *testing.T, opts run.Options) *run.Session {
	t.Helper()
	s, err := run.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCachedSuiteRunComputesNothing is the acceptance check for the result
// cache: a second suite run over the same (scenario, seed, trials, shard
// size, binary) performs zero trial computation and returns byte-identical
// figure output.
func TestCachedSuiteRunComputesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")

	first := newSession(t, run.Options{CacheDir: dir})
	firstOut := map[string]string{}
	for _, id := range fastFigs {
		res, info, err := run.ExecuteSpec(first, figSpec(id, 1))
		if err != nil {
			t.Fatal(err)
		}
		if info.Cached {
			t.Fatalf("%s: first run claims to be cached", id)
		}
		firstOut[id] = res.Figure.Render()
	}
	town := scenSpec("multilat-town", 1, 0, 0)
	if _, info, err := run.ExecuteSpec(first, town); err != nil || info.Cached {
		t.Fatalf("scenario first run: cached=%v err=%v", info.Cached, err)
	}
	if first.TrialsExecuted() == 0 {
		t.Fatal("first session executed no trials")
	}

	second := newSession(t, run.Options{CacheDir: dir})
	for _, id := range fastFigs {
		res, info, err := run.ExecuteSpec(second, figSpec(id, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !info.Cached {
			t.Errorf("%s: second run missed the cache", id)
		}
		if res.Figure.Render() != firstOut[id] {
			t.Errorf("%s: cached bytes differ\n--- first ---\n%s--- second ---\n%s", id, firstOut[id], res.Figure.Render())
		}
	}
	res, info, err := run.ExecuteSpec(second, town)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached || res.Report.Scenario != "multilat-town" {
		t.Errorf("scenario second run: cached=%v scenario=%q", info.Cached, res.Report.Scenario)
	}
	if got := second.TrialsExecuted(); got != 0 {
		t.Errorf("cached suite run computed %d trials, want 0", got)
	}
}

// TestCacheKeyedOnParameters verifies that seed, trial count, and shard size
// each miss the cache instead of serving a stale result. The parameters are
// per-spec now, so one session exercises every variant.
func TestCacheKeyedOnParameters(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s := newSession(t, run.Options{CacheDir: dir})

	base := scenSpec("multilat-town", 1, 2, 0)
	variants := map[string]spec.JobSpec{
		"same":       base,
		"seed":       scenSpec("multilat-town", 2, 2, 0),
		"trials":     scenSpec("multilat-town", 1, 3, 0),
		"shard size": scenSpec("multilat-town", 1, 2, 1),
	}

	if _, _, err := run.ExecuteSpec(s, base); err != nil {
		t.Fatal(err)
	}
	for name, sp := range variants {
		_, info, err := run.ExecuteSpec(s, sp)
		if err != nil {
			t.Fatal(err)
		}
		if name == "same" && !info.Cached {
			t.Error("identical parameters missed the cache")
		}
		if name != "same" && info.Cached {
			t.Errorf("changed %s but hit the cache", name)
		}
	}
}

// TestCacheKeyedOnOperatingPoint: factory instances share a scenario name
// across nearby operating points (NoiseSweep truncates its delta into the
// name), so the resolved params must be a key ingredient — and a spelled-out
// default must share the entry of an omitted one.
func TestCacheKeyedOnOperatingPoint(t *testing.T) {
	s := newSession(t, run.Options{CacheDir: filepath.Join(t.TempDir(), "cache")})

	point := func(delta float64) spec.JobSpec {
		sp := scenSpec("ranging-noise", 1, 2, 0)
		sp.Params = params.Map{"delta_db": params.Num(delta)}
		return sp
	}
	if _, _, err := run.ExecuteSpec(s, point(6)); err != nil {
		t.Fatal(err)
	}
	// Same operating point: hit. Same scenario NAME (6.2 truncates to
	// "ranging-noise-6db" too): miss.
	if _, info, err := run.ExecuteSpec(s, point(6)); err != nil || !info.Cached {
		t.Errorf("same operating point missed the cache (err=%v)", err)
	}
	if _, info, err := run.ExecuteSpec(s, point(6.2)); err != nil || info.Cached {
		t.Errorf("delta 6.2 hit delta 6's entry (err=%v)", err)
	}
	// The factory's default point, spelled out or omitted, is one entry.
	bare := scenSpec("ranging-noise", 1, 2, 0)
	if _, info, err := run.ExecuteSpec(s, bare); err != nil || !info.Cached {
		t.Errorf("param-less factory spec missed the spelled-out default's entry (err=%v, cached=%v)", err, info.Cached)
	}
}

func TestNoCacheDisablesCaching(t *testing.T) {
	s := newSession(t, run.Options{NoCache: true, CacheDir: t.TempDir()})
	if s.CacheDir() != "" {
		t.Errorf("NoCache session still has cache dir %q", s.CacheDir())
	}
	sp := scenSpec("multilat-town", 1, 2, 0)
	for i := 0; i < 2; i++ {
		_, info, err := run.ExecuteSpec(s, sp)
		if err != nil || info.Cached {
			t.Fatalf("run %d: cached=%v err=%v", i, info.Cached, err)
		}
		if info.CacheKey != "" {
			t.Errorf("run %d: cache-off execution reports cache key %q", i, info.CacheKey)
		}
	}
	if s.TrialsExecuted() != 4 {
		t.Errorf("trials executed %d, want 4", s.TrialsExecuted())
	}
}

// TestCacheKeyAddressesEntry checks Info.CacheKey is the served content
// address: the raw entry behind it (Session.CacheEntry, locd's /v1/cache) is
// the self-describing document for exactly this job.
func TestCacheKeyAddressesEntry(t *testing.T) {
	s := newSession(t, run.Options{CacheDir: filepath.Join(t.TempDir(), "cache")})
	_, info, err := run.ExecuteSpec(s, scenSpec("multilat-town", 1, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheKey == "" {
		t.Fatal("cached session reported no cache key")
	}
	b, ok, err := s.CacheEntry(info.CacheKey)
	if err != nil || !ok {
		t.Fatalf("CacheEntry(%s): ok=%v err=%v", info.CacheKey, ok, err)
	}
	if !bytes.Contains(b, []byte("multilat-town")) {
		t.Errorf("raw entry does not mention its scenario: %.120s", b)
	}
	if _, ok, _ := s.CacheEntry(strings.Repeat("0", 64)); ok {
		t.Error("absent hash reported as existing")
	}
}

// TestProgressKeyedPerJob: two concurrent jobs of the same scenario at
// different seeds each own their own milestone counter — neither job's
// lines are suppressed or reset by the other's completion.
func TestProgressKeyedPerJob(t *testing.T) {
	var buf bytes.Buffer
	s := newSession(t, run.Options{NoCache: true, Progress: &buf, SuiteParallel: 2})
	jobs, err := spec.ResolveAll([]spec.JobSpec{
		scenSpec("multilat-town", 1, 8, 1),
		scenSpec("multilat-town", 2, 8, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range run.ExecuteAll(s, jobs, nil) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	// Each job independently reaches its 8/8 milestone exactly once.
	if got := strings.Count(buf.String(), "8/8 trials"); got != 2 {
		t.Errorf("final milestone appeared %d times, want once per job: %q", got, buf.String())
	}
}

func TestProgressStream(t *testing.T) {
	var buf bytes.Buffer
	s := newSession(t, run.Options{NoCache: true, Progress: &buf})
	if _, _, err := run.ExecuteSpec(s, scenSpec("multilat-town", 1, 4, 0)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "multilat-town") || !strings.Contains(out, "4/4 trials") {
		t.Errorf("progress stream incomplete: %q", out)
	}
}

// TestOnProgressKeyedByJobID checks the service hook: counters arrive keyed
// by the spec's content hash, monotonically, ending at the full trial count.
func TestOnProgressKeyedByJobID(t *testing.T) {
	sp := scenSpec("multilat-town", 1, 4, 1)
	type tick struct {
		id          string
		done, total int
	}
	var ticks []tick
	s := newSession(t, run.Options{NoCache: true, OnProgress: func(id string, done, total int) {
		ticks = append(ticks, tick{id, done, total})
	}})
	if _, _, err := run.ExecuteSpec(s, sp); err != nil {
		t.Fatal(err)
	}
	if len(ticks) == 0 {
		t.Fatal("no OnProgress ticks")
	}
	last := 0
	for _, tk := range ticks {
		if tk.id != sp.Hash() {
			t.Errorf("tick keyed by %q, want the spec hash %q", tk.id, sp.Hash())
		}
		if tk.total != 4 || tk.done <= last-1 {
			t.Errorf("non-monotonic or mistotaled tick %+v", tk)
		}
		last = tk.done
	}
	if last != 4 {
		t.Errorf("final tick %d/4, want 4/4", last)
	}
}

func TestSessionRejectsBadOptions(t *testing.T) {
	if _, err := run.NewSession(run.Options{Workers: -1}); err == nil {
		t.Error("want error for negative workers")
	}
	if _, err := run.NewSession(run.Options{Trials: -1}); err == nil {
		t.Error("want error for negative trials")
	}
	if _, err := run.NewSession(run.Options{SuiteParallel: -1}); err == nil {
		t.Error("want error for negative suite parallelism")
	}
	if _, err := run.NewSession(run.Options{CacheGC: "sometimes"}); err == nil {
		t.Error("want error for invalid cache-gc value")
	}
}

// fastFigJobs resolves the suite jobs for fastFigs.
func fastFigJobs(t testing.TB, seed int64) []spec.Resolved {
	t.Helper()
	specs := make([]spec.JobSpec, len(fastFigs))
	for i, id := range fastFigs {
		specs[i] = figSpec(id, seed)
	}
	jobs, err := spec.ResolveAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestSuiteParallelMatchesGoldenCorpus is the acceptance check for the
// suite scheduler: overlapped execution must render every figure
// byte-identically to the committed golden corpus (which was generated by
// strictly serial execution) at seeds 1 and 5.
func TestSuiteParallelMatchesGoldenCorpus(t *testing.T) {
	goldenDir := filepath.Join("..", "..", "experiments", "testdata", "golden")
	for _, seed := range []int64{1, 5} {
		s := newSession(t, run.Options{NoCache: true, SuiteParallel: 4})
		for _, o := range run.ExecuteAll(s, fastFigJobs(t, seed), nil) {
			if o.Err != nil {
				t.Fatalf("%s: %v", o.Spec.ID, o.Err)
			}
			want, err := os.ReadFile(filepath.Join(goldenDir, fmt.Sprintf("%s_seed%d.golden", o.Spec.ID, seed)))
			if err != nil {
				t.Fatal(err)
			}
			if got := o.Result.Figure.Render(); got != string(want) {
				t.Errorf("%s seed %d under -suite-parallel 4 diverged from golden output\n--- got ---\n%s--- want ---\n%s",
					o.Spec.ID, seed, got, want)
			}
		}
	}
}

// TestSuiteParallelByteIdenticalAndOrdered runs the same suite at several
// overlap factors and checks (a) rendered results are byte-identical to
// sequential execution and (b) onDone always reports jobs in submission
// order, even though overlapped dispatch reorders execution longest-first.
func TestSuiteParallelByteIdenticalAndOrdered(t *testing.T) {
	render := func(suiteParallel int) []string {
		s := newSession(t, run.Options{NoCache: true, SuiteParallel: suiteParallel})
		var order, rendered []string
		outs := run.ExecuteAll(s, fastFigJobs(t, 1), func(o run.Outcome) {
			order = append(order, o.Spec.ID)
		})
		for _, o := range outs {
			if o.Err != nil {
				t.Fatalf("%s: %v", o.Spec.ID, o.Err)
			}
			rendered = append(rendered, o.Result.Figure.Render())
		}
		if strings.Join(order, ",") != strings.Join(fastFigs, ",") {
			t.Errorf("suite-parallel %d: onDone order %v, want %v", suiteParallel, order, fastFigs)
		}
		return rendered
	}
	sequential := render(1)
	// 0 resolves to GOMAXPROCS (clamped to the job count); 2 exercises a
	// partial overlap where some job must wait for a scheduler slot.
	for _, sp := range []int{0, 2} {
		got := render(sp)
		for i := range sequential {
			if got[i] != sequential[i] {
				t.Errorf("suite-parallel %d: %s differs from sequential output", sp, fastFigs[i])
			}
		}
	}
}

// TestExecuteAllUnorderedReportsEachJobOnce: the unordered variant still
// returns submission-ordered outcomes and invokes onDone exactly once per
// job — just not necessarily in submission order.
func TestExecuteAllUnorderedReportsEachJobOnce(t *testing.T) {
	s := newSession(t, run.Options{NoCache: true, SuiteParallel: 2})
	seen := map[string]int{}
	outs := run.ExecuteAllUnorderedContext(context.Background(), s, fastFigJobs(t, 1), func(o run.Outcome) {
		if o.Err != nil {
			t.Errorf("%s: %v", o.Spec.ID, o.Err)
		}
		seen[o.Spec.ID]++
	})
	for i, o := range outs {
		if o.Spec.ID != fastFigs[i] {
			t.Errorf("outcome %d is %s, want submission order %v", i, o.Spec.ID, fastFigs)
		}
	}
	for _, id := range fastFigs {
		if seen[id] != 1 {
			t.Errorf("onDone fired %d times for %s, want exactly once", seen[id], id)
		}
	}
}

// TestCacheHitDoesNotReplayExecutionMeta is the regression test for the
// stale-metadata bug: the run that populates the cache executes with 4
// workers, and a later hit from a -parallel 1 session must not report those
// 4 workers or the populating run's wall time — on disk the entry stores
// neither, and the returned report is stamped with this invocation's
// values.
func TestCacheHitDoesNotReplayExecutionMeta(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	sp := scenSpec("multilat-town", 1, 8, 1)

	first := newSession(t, run.Options{Workers: 4, CacheDir: dir})
	res1, info, err := run.ExecuteSpec(first, sp)
	if err != nil || info.Cached {
		t.Fatalf("populating run: cached=%v err=%v", info.Cached, err)
	}
	if res1.Report.Workers == 0 {
		t.Fatalf("populating run reports no workers; the fixture needs a parallel run")
	}

	// The stored entry must hold no execution metadata at all.
	c, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := cache.Key{Kind: spec.KindScenario, Scenario: "multilat-town", Seed: 1, Trials: 8, ShardSize: 1,
		Fingerprint: cache.Fingerprint()}
	var stored spec.Value
	if hit, err := c.Get(key, &stored); err != nil || !hit {
		t.Fatalf("stored entry lookup: hit=%v err=%v", hit, err)
	}
	if stored.Report.Workers != 0 || stored.Report.ElapsedSeconds != 0 {
		t.Errorf("cache stores execution metadata: workers=%d elapsed=%g, want both 0",
			stored.Report.Workers, stored.Report.ElapsedSeconds)
	}

	second := newSession(t, run.Options{Workers: 1, CacheDir: dir})
	res2, info, err := run.ExecuteSpec(second, sp)
	if err != nil || !info.Cached {
		t.Fatalf("hit run: cached=%v err=%v", info.Cached, err)
	}
	if res2.Report.Workers != 0 {
		t.Errorf("cache hit reports %d workers from the populating run, want 0", res2.Report.Workers)
	}
}

// valueCampaign wraps a scenario as a Campaign[*spec.Value], the way tests
// build synthetic resolved jobs outside the registries.
func valueCampaign(sc engine.Scenario) engine.Campaign[*spec.Value] {
	return engine.Campaign[*spec.Value]{
		Scenario: sc,
		Finalize: func(rep *engine.Report) (*spec.Value, error) { return &spec.Value{Report: rep}, nil },
	}
}

// TestSuiteStopsAfterFailure pins the scheduler's fail-fast contract: the
// suite's genuine failures are the non-ErrSkipped errors (exactly one
// here, since only one job can fail), nothing starts fresh after a
// failure, every job still receives an outcome, and in-flight campaigns
// report a usable one.
func TestSuiteStopsAfterFailure(t *testing.T) {
	okJob := func() spec.Resolved {
		r, err := spec.Resolve(scenSpec("multilat-town", 1, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	boomSc := engine.Scenario{
		Name: "boom", Trials: 2,
		Run: func(*engine.T) error { return fmt.Errorf("kaboom") },
	}
	boom := spec.Resolved{
		Spec:     spec.JobSpec{Kind: spec.KindScenario, ID: "boom", Seed: 1, Trials: 2},
		Campaign: valueCampaign(boomSc),
		Trials:   2, TotalTrials: 2, ShardSize: engine.DefaultShardSize,
	}
	jobs := []spec.Resolved{okJob(), boom, okJob(), okJob()}

	seq := newSession(t, run.Options{NoCache: true, SuiteParallel: 1})
	outs := run.ExecuteAll(seq, jobs, nil)
	if len(outs) != len(jobs) || outs[0].Err != nil || outs[1].Err == nil {
		t.Fatalf("sequential failure lost outcomes: %+v", outs)
	}
	for _, o := range outs[2:] {
		if !errors.Is(o.Err, run.ErrSkipped) {
			t.Errorf("sequential job %s after the failure: %v, want ErrSkipped", o.Spec.ID, o.Err)
		}
	}

	par := newSession(t, run.Options{NoCache: true, SuiteParallel: 2})
	outs = run.ExecuteAll(par, jobs, nil)
	if len(outs) != len(jobs) {
		t.Fatalf("overlapped suite returned %d outcomes, want %d", len(outs), len(jobs))
	}
	var genuine []string
	for _, o := range outs {
		if o.Err == nil {
			if o.Result == nil {
				t.Errorf("job %s has neither a result nor an error", o.Spec.ID)
			}
			continue
		}
		if !errors.Is(o.Err, run.ErrSkipped) {
			genuine = append(genuine, o.Err.Error())
		}
	}
	if len(genuine) != 1 || !strings.Contains(genuine[0], "kaboom") {
		t.Errorf("genuine failures = %v, want exactly the kaboom error", genuine)
	}
}

// TestFailedTrialBanksNothing pins the failure path of both execution
// shapes: a full run (a cold plan, with and without a cache) and a range
// sub-job each report the lowest failing trial of what they ran, and leave
// no cache entry behind — no full key, gap key or range key.
func TestFailedTrialBanksNothing(t *testing.T) {
	sc := engine.Scenario{
		Name: "fails-at", Trials: 24,
		Run: func(t *engine.T) error {
			if t.Trial%7 == 3 {
				return fmt.Errorf("kaboom")
			}
			t.Record("x", float64(t.Trial))
			return nil
		},
	}
	for _, tc := range []struct {
		name    string
		noCache bool
		rng     *spec.Range
		want    string
	}{
		{name: "cached cold full run", want: "trial 3: kaboom"},
		{name: "no-cache full run", noCache: true, want: "trial 3: kaboom"},
		{name: "range sub-job", rng: &spec.Range{Lo: 5, Hi: 20}, want: "trial 10: kaboom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cache")
			s := newSession(t, run.Options{CacheDir: dir, NoCache: tc.noCache, CacheGC: "off"})
			job := spec.Resolved{
				Spec: spec.JobSpec{Kind: spec.KindScenario, ID: sc.Name, Seed: 1, Trials: 24, ShardSize: 4,
					TrialRange: tc.rng},
				Campaign: valueCampaign(sc),
				Trials:   24, TotalTrials: 24, ShardSize: 4,
			}
			if tc.rng != nil {
				job.Trials = tc.rng.Hi - tc.rng.Lo
			}
			outs := run.ExecuteAll(s, []spec.Resolved{job}, nil)
			if err := outs[0].Err; err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one naming %q", err, tc.want)
			}
			entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 || s.TrialsExecuted() != 0 {
				t.Errorf("failed job left %d cache entries and %d executed trials, want none",
					len(entries), s.TrialsExecuted())
			}
		})
	}
}

// TestCacheGetErrorWarns plants a parseable entry whose value no longer
// decodes into the expected result type: the session must warn once and
// fall back to recomputation instead of silently recomputing.
func TestCacheGetErrorWarns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := cache.Key{Kind: spec.KindScenario, Scenario: "multilat-town", Seed: 1, Trials: 2,
		ShardSize: engine.DefaultShardSize, Fingerprint: cache.Fingerprint()}
	if err := c.Put(key, []int{1, 2, 3}); err != nil { // an array cannot decode into a Value
		t.Fatal(err)
	}

	var warnings bytes.Buffer
	s := newSession(t, run.Options{CacheDir: dir, Warnings: &warnings})
	sp := scenSpec("multilat-town", 1, 2, 0)
	res, info, err := run.ExecuteSpec(s, sp)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Error("undecodable entry served as a cache hit")
	}
	if res == nil || s.TrialsExecuted() != 2 {
		t.Errorf("fallback recompute did not run: trials=%d", s.TrialsExecuted())
	}
	if w := warnings.String(); !strings.Contains(w, "multilat-town") || !strings.Contains(w, "cache") {
		t.Errorf("undecodable entry produced no warning, got %q", w)
	}

	// The recompute overwrote the bad entry, so the next run hits cleanly.
	warnings.Reset()
	s2 := newSession(t, run.Options{CacheDir: dir, Warnings: &warnings})
	if _, info, err := run.ExecuteSpec(s2, sp); err != nil || !info.Cached {
		t.Errorf("after recompute: cached=%v err=%v, want a clean hit", info.Cached, err)
	}
	if warnings.Len() != 0 {
		t.Errorf("clean hit still warned: %q", warnings.String())
	}
}

// TestProgressNonTTYNewlines pins the CI-log fix: a non-terminal progress
// writer receives newline-delimited milestone lines — never a carriage
// return — with a monotonic counter ending at total/total.
func TestProgressNonTTYNewlines(t *testing.T) {
	var buf bytes.Buffer
	s := newSession(t, run.Options{NoCache: true, Progress: &buf})
	if _, _, err := run.ExecuteSpec(s, scenSpec("multilat-town", 1, 16, 1)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.ContainsAny(out, "\r\x1b") {
		t.Errorf("non-TTY progress contains carriage returns or ANSI escapes: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) == 0 || len(lines) > 4 {
		t.Fatalf("want 1..4 milestone lines, got %d: %q", len(lines), out)
	}
	last := -1
	for _, l := range lines {
		var done, total int
		if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(l, "multilat-town")), "%d/%d trials", &done, &total); err != nil {
			t.Fatalf("unparseable milestone line %q: %v", l, err)
		}
		if done <= last || total != 16 {
			t.Errorf("milestone counters not monotonic toward 16: %q", out)
		}
		last = done
	}
	if last != 16 {
		t.Errorf("final milestone %d/16, want 16/16: %q", last, out)
	}
}

// TestSessionCacheGCSweepsOldEntries checks NewSession's opportunistic
// sweep and its -cache-gc=off escape hatch.
func TestSessionCacheGCSweepsOldEntries(t *testing.T) {
	newAgedEntry := func(dir string) cache.Key {
		c, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		k := cache.Key{Scenario: "dead", Seed: 9, Trials: 1, ShardSize: 1, Fingerprint: "deadbeef"}
		if err := c.Put(k, 42); err != nil {
			t.Fatal(err)
		}
		when := time.Now().Add(-45 * 24 * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, k.Hash()+".json"), when, when); err != nil {
			t.Fatal(err)
		}
		return k
	}
	lookup := func(dir string, k cache.Key) bool {
		c, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var v int
		hit, err := c.Get(k, &v)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}

	offDir := filepath.Join(t.TempDir(), "cache-off")
	k := newAgedEntry(offDir)
	if _, err := run.NewSession(run.Options{CacheDir: offDir, CacheGC: "off"}); err != nil {
		t.Fatal(err)
	}
	if !lookup(offDir, k) {
		t.Error("-cache-gc=off session still swept the cache")
	}

	onDir := filepath.Join(t.TempDir(), "cache-on")
	k = newAgedEntry(onDir)
	if _, err := run.NewSession(run.Options{CacheDir: onDir}); err != nil {
		t.Fatal(err)
	}
	if lookup(onDir, k) {
		t.Error("session with default cache-gc left a 45-day-old entry")
	}
}

// TestSuiteParallelSharesCacheSafely schedules the same job twice in one
// overlapped suite: per-key serialization must compute it once and hand the
// duplicate a cache hit (never a torn or raced entry).
func TestSuiteParallelSharesCacheSafely(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s := newSession(t, run.Options{CacheDir: dir, SuiteParallel: 2})
	job, err := spec.Resolve(scenSpec("multilat-town", 1, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	outs := run.ExecuteAll(s, []spec.Resolved{job, job}, nil)
	hits := 0
	for _, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if o.Info.Cached {
			hits++
		}
	}
	if hits != 1 || s.TrialsExecuted() != 4 {
		t.Errorf("duplicate campaign: %d cache hits, %d trials executed; want 1 hit and 4 trials",
			hits, s.TrialsExecuted())
	}
}
