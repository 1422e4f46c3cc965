// Package locsrv is the localization-result service: the HTTP front-end
// over the spec-driven campaign runner that cmd/locd serves and the
// distributed coordinator (internal/engine/coord) submits trial-range
// sub-jobs to. It lives as a library so the daemon binary stays a thin
// flag-and-signal shell and every consumer — coordinator tests, CLI
// distributed modes, CI harnesses — can stand up a real worker in-process.
//
// Jobs are wire-addressable and content-addressed: a job's ID is the
// SHA-256 of its spec's canonical encoding, so identical submissions are
// the same job. Resubmitting a spec while its first run is in flight
// attaches to that run (and a submission whose cache key is already
// populated is answered from the on-disk result cache with zero trial
// computation — the same cache the CLIs share when pointed at the same
// directory and binary). A spec restricted to a proper trial sub-range
// executes partially and answers with the range's serialized shard
// aggregates (spec.Value.Partial), which is the unit of work the
// coordinator fans out and merges.
//
// Endpoints:
//
//	POST /v1/jobs             submit one spec or an array; returns job IDs
//	POST /v1/sweeps           expand a sweep and stream one merged NDJSON feed
//	GET  /v1/jobs/{id}        job status, and the result once done
//	GET  /v1/jobs/{id}/events NDJSON stream of trial-progress events
//	GET  /v1/cache/{key}      raw result-cache entry by content address
//	POST /v1/cache/ranges     crash-resume probe: cached ranges of a job spec
//	POST /v1/fleet/announce   worker registration heartbeat (fleet registry)
//	GET  /v1/fleet            live fleet membership
//	GET  /healthz             liveness
//
// Every events stream that observes its job finish ends with a terminal
// status line — status "done" or "failed" (with error text and the
// retryable "skipped" marker) — so stream consumers can distinguish a job
// failure from a mere disconnect, which never carries a status line.
//
// Submissions that would push the running-job table past its admission
// bound — sized from the shared shard budget's capacity, so a big machine
// queues proportionally more than a small one — are rejected whole with
// 429 and a Retry-After header scaled by queue depth and actual budget
// saturation (Budget.InUse vs capacity), so a fleet scheduler can back off
// instead of piling work onto a saturated worker.
//
// Every server also hosts a fleet registry (internal/engine/fleet): locd
// workers announce themselves to any one of them, and coordinators
// discover the fleet from it instead of being handed a static worker list.
package locsrv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/fleet"
	"resilientloc/internal/engine/params"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// job is one wire-addressable execution: a resolved spec plus its
// life-cycle state. All fields are guarded by the server mutex.
type job struct {
	id       string
	resolved spec.Resolved
	status   string // "running", "done", "failed"
	trials   int    // effective total trial count
	progress int    // trials completed so far
	result   *spec.Value
	info     run.Info
	errMsg   string
	skipped  bool                     // failed only because a batch sibling failed; retryable
	done     chan struct{}            // closed when the job leaves "running"
	subs     map[chan [2]int]struct{} // event subscribers: (done, total)
	// trace is the job's recorded span subtree (run.job and the engine spans
	// beneath it), extracted from the batch tracer at completion. Served in
	// the job summary so the coordinator can graft worker-side execution
	// timelines into its own trace.
	trace []obs.SpanRecord
}

// maxFinishedJobs bounds the in-memory job table: finished jobs beyond the
// cap are evicted oldest-first (their results live on in the result cache;
// an evicted id polls as 404 and resubmits as a fresh — typically cached —
// job). Running jobs are never evicted. A variable so tests can shrink it.
var maxFinishedJobs = 1024

// runningPerSlot sizes the admission bound per shard-budget slot: the
// "running" set of the job table may hold at most runningPerSlot jobs per
// slot of the shared budget's capacity. A submission — single spec, batch,
// or sweep — whose fresh registrations would push the running count past
// that is rejected whole with 429, before any of its jobs register.
// Resubmissions of in-flight or finished jobs are free (they attach,
// registering nothing). Tying the bound to budget capacity instead of a
// fixed count means a 32-core worker admits a proportionally deeper queue
// than a 2-core one — the bound tracks what the machine can actually
// drain. A variable so tests can shrink it.
var runningPerSlot = 32

// admissionBudget is the budget whose capacity and saturation the 429
// admission bound derives from: the process-wide shard budget in
// production, a pinned tiny budget in tests.
var admissionBudget = engine.SharedBudget

// maxRunningJobs returns the current admission bound on the running set.
func maxRunningJobs() int { return runningPerSlot * admissionBudget().Cap() }

// overloadError reports a rejected submission: the batch's fresh jobs plus
// the currently running set would exceed the budget-derived admission
// bound. RetryAfter is the suggested back-off in seconds, scaled by the
// suite-scheduler queue depth and the budget's saturation.
type overloadError struct {
	fresh, running, limit int
	retryAfter            int
}

func (e *overloadError) Error() string {
	return fmt.Sprintf("overloaded: %d running jobs + %d new would exceed the %d-job bound; retry after %ds",
		e.running, e.fresh, e.limit, e.retryAfter)
}

// retryAfterSeconds scales the back-off hint with the suite-scheduler queue
// depth (the run_jobs_queued gauge /healthz also reports) and the shard
// budget's actual saturation: an idle-but-full table suggests 1s, a fully
// saturated budget adds a few seconds, and a deep queue pushes toward the
// one-minute ceiling.
func retryAfterSeconds() int {
	retry := 1 + int(obs.Default().Gauge("run_jobs_queued").Value())/64
	if b := admissionBudget(); b.Cap() > 0 {
		retry += (4 * b.InUse()) / b.Cap()
	}
	if retry > 60 {
		retry = 60
	}
	return retry
}

// Server is the job table and its execution session. Zero value is not
// usable; construct with New.
type Server struct {
	sess  *run.Session
	fleet *fleet.Registry
	stop  chan struct{} // closed by Close to unblock event streams
	once  sync.Once

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // finished job ids in completion order, for eviction
}

// New builds the job table and its session from the execution options. The
// session's OnProgress hook is bound before the session exists, because
// NewSession needs the final Options — the hook only dereferences the
// server, which is ready.
func New(opts run.Options) (*Server, error) {
	s := &Server{
		jobs:  make(map[string]*job),
		fleet: fleet.NewRegistry(0),
		stop:  make(chan struct{}),
	}
	opts.OnProgress = s.onProgress
	sess, err := run.NewSession(opts)
	if err != nil {
		return nil, err
	}
	s.sess = sess
	return s, nil
}

// Session exposes the server's execution session (cache directory, trial
// accounting).
func (s *Server) Session() *run.Session { return s.sess }

// Close unblocks every open event stream; idempotent. Call it before HTTP
// server shutdown, which waits for open connections — a subscriber on a
// running job would otherwise hold the daemon until the timeout.
func (s *Server) Close() {
	s.once.Do(func() { close(s.stop) })
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweeps)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCache)
	mux.HandleFunc("POST /v1/cache/ranges", s.handleCacheRanges)
	mux.HandleFunc("POST "+fleet.AnnouncePath, s.handleFleetAnnounce)
	mux.HandleFunc("GET "+fleet.ListPath, s.handleFleetList)
	mux.HandleFunc("GET /metrics", handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleMetrics serves the process-wide metric registry in Prometheus text
// exposition format: engine shard/trial counters, cache hit rates, run-layer
// job accounting — everything the instrumented layers record.
func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().WritePrometheus(w)
}

// health is the /healthz body: liveness plus the load signals a fleet
// scheduler balances on — how deep the queue is, how many jobs are actually
// executing, and how saturated the shared shard budget is.
type health struct {
	Status string `json:"status"`
	// QueueDepth is the number of submitted jobs waiting for a suite-scheduler
	// slot (run_jobs_queued).
	QueueDepth int64 `json:"queue_depth"`
	// InflightJobs is the number of jobs currently executing trials
	// (run_jobs_inflight).
	InflightJobs int64 `json:"inflight_jobs"`
	// RunningJobs is the size of the job table's "running" set: queued plus
	// executing, as the wire sees it.
	RunningJobs int `json:"running_jobs"`
	// BudgetInUse / BudgetCap describe the process-wide shard-slot budget;
	// BudgetSaturation is their ratio (1.0 = every worker slot busy).
	BudgetInUse      int     `json:"budget_in_use"`
	BudgetCap        int     `json:"budget_cap"`
	BudgetSaturation float64 `json:"budget_saturation"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	running := 0
	for _, j := range s.jobs {
		if j.status == "running" {
			running++
		}
	}
	s.mu.Unlock()
	b := engine.SharedBudget()
	h := health{
		Status:       "ok",
		QueueDepth:   obs.Default().Gauge("run_jobs_queued").Value(),
		InflightJobs: obs.Default().Gauge("run_jobs_inflight").Value(),
		RunningJobs:  running,
		BudgetInUse:  b.InUse(),
		BudgetCap:    b.Cap(),
	}
	h.BudgetSaturation = float64(h.BudgetInUse) / float64(h.BudgetCap)
	writeJSON(w, http.StatusOK, h)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// jobSummary is the wire representation of a job.
type jobSummary struct {
	ID   string       `json:"id"`
	Spec spec.JobSpec `json:"spec"`
	// Params is the job's resolved operating point — the spec's params with
	// the factory's defaults filled in. Absent for param-less jobs.
	Params     params.Map `json:"params,omitempty"`
	Status     string     `json:"status"`
	Trials     int        `json:"trials"`
	DoneTrials int        `json:"done_trials"`
	Cached     bool       `json:"cached,omitempty"`
	// ReusedTrials counts trials the prefix-reuse planner satisfied from
	// cached range entries instead of recomputing (see run.Info).
	ReusedTrials   int     `json:"reused_trials,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	CacheKey       string  `json:"cache_key,omitempty"`
	Error          string  `json:"error,omitempty"`
	// Skipped marks a failure that only reflects a batch sibling's error;
	// the job is retryable by resubmitting its spec. The machine-readable
	// field is the contract — the error text is not.
	Skipped bool        `json:"skipped,omitempty"`
	URL     string      `json:"url"`
	Result  *spec.Value `json:"result,omitempty"`
	// Trace is the job's span subtree (run.job plus the engine spans under
	// it), present on finished jobs when the result is requested. Timestamps
	// are this worker's clock; the coordinator remaps span IDs on import.
	Trace []obs.SpanRecord `json:"trace,omitempty"`
}

// summaryLocked renders a job; the caller holds s.mu.
func (j *job) summaryLocked(withResult bool) jobSummary {
	v := jobSummary{
		ID:           j.id,
		Spec:         j.resolved.Spec,
		Params:       j.resolved.Params,
		Status:       j.status,
		Trials:       j.trials,
		DoneTrials:   j.progress,
		Cached:       j.info.Cached,
		ReusedTrials: j.info.ReusedTrials,
		CacheKey:     j.info.CacheKey,
		Error:        j.errMsg,
		Skipped:      j.skipped,
		URL:          "/v1/jobs/" + j.id,
	}
	if j.status != "running" {
		v.ElapsedSeconds = j.info.Elapsed.Seconds()
	}
	if withResult && j.status == "done" {
		v.Result = j.result
		v.Trace = j.trace
	}
	return v
}

// handleSubmit accepts one spec or an array, registers the new jobs, and
// launches one suite run for them. Specs whose job ID already exists —
// running or finished — are answered with the existing job, so identical
// concurrent submissions compute their trials exactly once. A job that
// failed only because a batch sibling failed (skipped) is retried by
// resubmission instead of being memoized forever.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	specs, err := spec.Decode(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, tooLarge)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resolved, err := spec.ResolveAll(specs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := checkWireObservable(resolved); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	summaries, _, fresh, err := s.registerJobs(resolved)
	if err != nil {
		writeOverloaded(w, err)
		return
	}
	s.launch(fresh)
	writeJSON(w, http.StatusAccepted, map[string]any{"jobs": summaries})
}

// checkWireObservable rejects specs whose retained per-trial values could
// never reach the submitter. A full job's retained values never serialize
// (they exist for in-process Finalize consumers), so over the wire the knob
// could only burn a cache bypass without ever being observable. A proper
// trial-range sub-job is exempt: its engine.Partial serializes the retained
// values, which is how the coordinator distributes retention jobs.
func checkWireObservable(resolved []spec.Resolved) error {
	for _, rj := range resolved {
		if rj.Spec.KeepTrialValues && rj.PartialRange() == nil {
			return fmt.Errorf("spec %s: keep_trial_values is not observable over the wire; drop it", rj.Spec.ID)
		}
	}
	return nil
}

// writeOverloaded renders a registration error; an overloadError becomes a
// 429 with a Retry-After header, anything else a 500.
func writeOverloaded(w http.ResponseWriter, err error) {
	var ov *overloadError
	if errors.As(err, &ov) {
		w.Header().Set("Retry-After", strconv.Itoa(ov.retryAfter))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}

// registerJobs checks admission and registers a batch's fresh jobs under one
// mutex hold, so the batch is admitted or rejected atomically: on overload
// nothing registers and the returned error carries the retry hint. On
// success it returns one summary and one job pointer per resolved spec (in
// submission order, duplicates and attachments included) plus the fresh
// subset that needs an executor.
func (s *Server) registerJobs(resolved []spec.Resolved) ([]jobSummary, []*job, []*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	running := 0
	for _, j := range s.jobs {
		if j.status == "running" {
			running++
		}
	}
	freshIDs := make(map[string]bool)
	for _, rj := range resolved {
		id := rj.Spec.Hash()
		if j, ok := s.jobs[id]; !ok || j.skipped {
			freshIDs[id] = true
		}
	}
	if limit := maxRunningJobs(); running+len(freshIDs) > limit {
		return nil, nil, nil, &overloadError{
			fresh: len(freshIDs), running: running, limit: limit,
			retryAfter: retryAfterSeconds(),
		}
	}
	summaries := make([]jobSummary, 0, len(resolved))
	all := make([]*job, 0, len(resolved))
	var fresh []*job
	for _, rj := range resolved {
		id := rj.Spec.Hash()
		j, ok := s.jobs[id]
		if ok && j.skipped {
			ok = false // replace the skipped record with a fresh attempt
			s.dropFinishedLocked(id)
		}
		if !ok {
			// A batch listing one spec twice takes this branch once: the
			// first occurrence inserts the job the second one finds.
			j = &job{
				id:       id,
				resolved: rj,
				status:   "running",
				trials:   rj.Trials,
				done:     make(chan struct{}),
				subs:     make(map[chan [2]int]struct{}),
			}
			s.jobs[id] = j
			fresh = append(fresh, j)
		}
		summaries = append(summaries, j.summaryLocked(false))
		all = append(all, j)
	}
	return summaries, all, fresh, nil
}

// launch starts one unordered suite run for a batch's fresh jobs. Each batch
// runs under its own tracer, so every job's execution timeline can be
// extracted at completion and served with its result. Unordered: each job
// answers its pollers and event streams the moment it finishes, instead of
// waiting on batch siblings.
func (s *Server) launch(fresh []*job) {
	if len(fresh) == 0 {
		return
	}
	jobs := make([]spec.Resolved, len(fresh))
	for i, j := range fresh {
		jobs[i] = j.resolved
	}
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	go run.ExecuteAllUnorderedContext(ctx, s.sess, jobs, func(o run.Outcome) {
		s.finishTraced(tr, o)
	})
}

// dropFinishedLocked removes a job id from the eviction queue; called when
// a skipped record is replaced, so its stale queue entry cannot evict the
// retry's record ahead of time. The caller holds s.mu.
func (s *Server) dropFinishedLocked(id string) {
	for i, f := range s.finished {
		if f == id {
			s.finished = append(s.finished[:i], s.finished[i+1:]...)
			return
		}
	}
}

// finishTraced extracts the outcome's span subtree — the job's run.job span
// and everything beneath it — from the batch tracer, then records the
// outcome. The job's spans are all ended by the time its outcome is
// delivered, so the extraction is complete even while batch siblings are
// still running.
func (s *Server) finishTraced(tr *obs.Tracer, o run.Outcome) {
	id := o.Spec.Hash()
	trace := obs.Subtree(tr.Export(), func(r obs.SpanRecord) bool {
		return r.Name == "run.job" && r.Attrs["job"] == id
	})
	s.finish(o, trace)
}

// finish records a suite outcome on its job, wakes every waiter, and evicts
// the oldest finished jobs beyond the table bound.
func (s *Server) finish(o run.Outcome, trace []obs.SpanRecord) {
	id := o.Spec.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	j.info = o.Info
	j.trace = trace
	if o.Err != nil {
		j.status = "failed"
		j.errMsg = o.Err.Error()
		j.skipped = errors.Is(o.Err, run.ErrSkipped)
	} else {
		j.status = "done"
		j.result = o.Result
		j.progress = o.Info.Trials
	}
	close(j.done)
	s.finished = append(s.finished, id)
	for len(s.finished) > maxFinishedJobs {
		victim := s.finished[0]
		s.finished = s.finished[1:]
		// Only evict the record this completion refers to: the id may have
		// been re-registered (skipped retry) and be running again.
		if v, ok := s.jobs[victim]; ok && v.status != "running" {
			delete(s.jobs, victim)
		}
	}
}

// onProgress is the session hook: route trial counters to the job's record
// and its event subscribers. Slow subscribers drop intermediate events —
// each event carries the absolute counter, so the next one catches them up.
func (s *Server) onProgress(id string, done, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	j.progress = done
	for ch := range j.subs {
		select {
		case ch <- [2]int{done, total}:
		default:
		}
	}
}

func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var v jobSummary
	if ok {
		v = j.summaryLocked(true)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// event is one NDJSON line of a job's progress stream. The terminal line
// carries the final status — "done" or "failed", with the error text and
// retryable marker — instead of a counter delta, so a consumer can always
// tell a finished job from a dropped connection.
type event struct {
	ID     string `json:"id"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Status string `json:"status,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	// ReusedTrials mirrors jobSummary.ReusedTrials on terminal lines: how
	// many of the job's trials the prefix-reuse planner satisfied from
	// cached range entries.
	ReusedTrials int    `json:"reused_trials,omitempty"`
	Error        string `json:"error,omitempty"`
	// Skipped mirrors jobSummary.Skipped on terminal "failed" lines: the
	// failure is a batch sibling's, and resubmitting the spec retries it.
	Skipped bool `json:"skipped,omitempty"`
	// ElapsedSeconds is the job's wall time, carried on terminal lines only —
	// the same per-job timing the job summary reports.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	// Result carries the job's final value on a sweep stream's terminal
	// "done" lines, so a sweep consumer never has to fetch N job summaries.
	// Single-job event streams leave it unset — their consumers already hold
	// the job URL.
	Result *spec.Value `json:"result,omitempty"`
}

// handleEvents streams trial-progress counters for one job as
// newline-delimited JSON until the job finishes (one snapshot line is
// always emitted first, so subscribing to a finished job still yields its
// final state plus the terminal line). The stream ends with a terminal
// status line whenever the job itself finished; it ends without one only
// when the subscriber disconnected or the server shut down.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	ch := make(chan [2]int, 64)
	s.mu.Lock()
	j.subs[ch] = struct{}{}
	snapshot := event{ID: j.id, Done: j.progress, Total: j.trials}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(j.subs, ch)
		s.mu.Unlock()
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func(e event) bool {
		if err := enc.Encode(e); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !emit(snapshot) {
		return
	}
	for {
		select {
		case p := <-ch:
			if !emit(event{ID: j.id, Done: p[0], Total: p[1]}) {
				return
			}
		case <-j.done:
			s.mu.Lock()
			final := event{ID: j.id, Done: j.progress, Total: j.trials,
				Status: j.status, Cached: j.info.Cached, ReusedTrials: j.info.ReusedTrials,
				Error: j.errMsg, Skipped: j.skipped,
				ElapsedSeconds: j.info.Elapsed.Seconds()}
			s.mu.Unlock()
			emit(final)
			return
		case <-s.stop:
			return
		case <-r.Context().Done():
			return
		}
	}
}

// sweepHeader is the first NDJSON line of a sweep stream: the expansion's
// shape, so the consumer knows every job ID (in expansion order) and how
// many terminal lines to expect before reading any progress.
type sweepHeader struct {
	Points      int      `json:"points"`
	Jobs        []string `json:"jobs"`
	TotalTrials int      `json:"total_trials"`
}

// sweepSummary is the last NDJSON line of a sweep stream: "done" when every
// point succeeded, "failed" with the failure count otherwise. Like a job
// stream's terminal status line, its presence is what distinguishes a
// completed sweep from a dropped connection.
type sweepSummary struct {
	Status string `json:"status"`
	Points int    `json:"points"`
	Failed int    `json:"failed,omitempty"`
}

// handleSweeps expands a sweep document into its content-addressed job
// specs, registers them as one batch (deduplicated against running and
// finished jobs by the same machinery as POST /v1/jobs, and subject to the
// same 429 backpressure), and answers with a single merged NDJSON stream:
// one header line naming every job, interleaved per-job progress lines,
// one terminal status line per job — carrying the result on success — and
// a final sweep summary line.
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	sw, err := spec.DecodeSweep(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, tooLarge)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	specs, err := sw.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resolved, err := spec.ResolveAll(specs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := checkWireObservable(resolved); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	_, all, fresh, err := s.registerJobs(resolved)
	if err != nil {
		writeOverloaded(w, err)
		return
	}
	s.launch(fresh)

	// The expansion may contain repeated points (e.g. a template param equal
	// to a grid value is rejected earlier, but two grids can still collide
	// after resolution only at the cache layer, and duplicate seeds are
	// legal); each distinct job streams once.
	var uniq []*job
	seen := make(map[string]bool)
	for _, j := range all {
		if !seen[j.id] {
			seen[j.id] = true
			uniq = append(uniq, j)
		}
	}
	hdr := sweepHeader{Points: len(all), Jobs: make([]string, len(uniq))}
	for i, j := range uniq {
		hdr.Jobs[i] = j.id
		hdr.TotalTrials += j.resolved.Trials
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !emit(hdr) {
		return
	}

	// One forwarder per job funnels its progress and terminal event into the
	// merged channel; the handler goroutine is the only writer to the
	// response. Forwarders block on the merged send (terminal lines must not
	// drop) and bail out when the stream ends for any reason.
	done := make(chan struct{})
	defer close(done)
	merged := make(chan event, 64)
	for _, j := range uniq {
		go func(j *job) {
			ch := make(chan [2]int, 64)
			s.mu.Lock()
			j.subs[ch] = struct{}{}
			s.mu.Unlock()
			defer func() {
				s.mu.Lock()
				delete(j.subs, ch)
				s.mu.Unlock()
			}()
			for {
				select {
				case p := <-ch:
					select {
					case merged <- event{ID: j.id, Done: p[0], Total: p[1]}:
					case <-done:
						return
					}
				case <-j.done:
					s.mu.Lock()
					final := event{ID: j.id, Done: j.progress, Total: j.trials,
						Status: j.status, Cached: j.info.Cached, ReusedTrials: j.info.ReusedTrials,
						Error: j.errMsg, Skipped: j.skipped,
						ElapsedSeconds: j.info.Elapsed.Seconds()}
					if j.status == "done" {
						final.Result = j.result
					}
					s.mu.Unlock()
					select {
					case merged <- final:
					case <-done:
					}
					return
				case <-done:
					return
				}
			}
		}(j)
	}

	finished, failed := 0, 0
	for finished < len(uniq) {
		select {
		case e := <-merged:
			if !emit(e) {
				return
			}
			if e.Status != "" {
				finished++
				if e.Status != "done" {
					failed++
				}
			}
		case <-s.stop:
			return
		case <-r.Context().Done():
			return
		}
	}
	sum := sweepSummary{Status: "done", Points: len(all), Failed: failed}
	if failed > 0 {
		sum.Status = "failed"
	}
	emit(sum)
}

// handleCache serves a raw result-cache entry by its content address — the
// self-describing {key, value} JSON document the cache stores on disk.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	b, ok, err := s.sess.CacheEntry(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such cache entry (or caching is disabled)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// handleCacheRanges is the crash-resume probe: the body is one full-job
// spec, and the response is the run.RangeProbe of everything this worker's
// cache has banked for it — the full-run entry's content address (if any)
// and every partial-range entry, keyed with this worker's own binary
// fingerprint. A restarted coordinator probes each worker, greedily covers
// the trial space from the answers, fetches the chosen entries via
// GET /v1/cache/{key}, and re-executes only the gaps.
func (s *Server) handleCacheRanges(w http.ResponseWriter, r *http.Request) {
	specs, err := spec.Decode(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(specs) != 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("range probe wants exactly one job spec, got %d", len(specs)))
		return
	}
	probe, err := s.sess.RangeEntries(specs[0])
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, probe)
}

// handleFleetAnnounce registers (or, for a leaving announce, removes) one
// worker in this server's fleet registry.
func (s *Server) handleFleetAnnounce(w http.ResponseWriter, r *http.Request) {
	var a fleet.Announce
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<10)).Decode(&a); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	joined, err := s.fleet.Announce(a)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"joined": joined})
}

// handleFleetList serves the live fleet membership plus the registry's
// eviction window, so clients can size their own polling against it.
func (s *Server) handleFleetList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, fleet.View{
		Workers:           s.fleet.Members(),
		EvictAfterSeconds: s.fleet.EvictAfter().Seconds(),
	})
}
