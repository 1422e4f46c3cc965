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
// attaches to that run. A submission whose cache key is already populated
// is answered from the on-disk result cache — the same cache the CLIs share
// when pointed at the same directory and binary — within the POST itself:
// its summary in the response already reads "done" and "cached", with zero
// trial computation, so the client fetches the result without following
// the events stream. A spec restricted to a proper trial sub-range
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
// Every JSON response is one line of compact JSON, and the NDJSON streams
// carry one compact object per line; pipe a response through jq to read
// it.
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
	"io"
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
	running  int      // jobs whose status is "running"
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
	running := s.running
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

// writeJSON answers with v as one line of compact JSON: indenting would
// add about half again the bytes and encoder work to every response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
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

// handleSubmit accepts one spec or an array, registers the new jobs, answers
// the cached ones on the spot, and launches one suite run for the rest.
// Specs whose job ID already exists — running or finished — are answered
// with the existing job, so identical concurrent submissions compute their
// trials exactly once. A job that failed only because a batch sibling
// failed (skipped) is retried by resubmission instead of being memoized
// forever.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	summaries, _, ok := s.admit(w, r, spec.Decode)
	if ok {
		writeJSON(w, http.StatusAccepted, map[string]any{"jobs": summaries})
	}
}

// admit is the shared front half of POST /v1/jobs and /v1/sweeps: decode the
// body into specs (413 when it is too large, 400 when it does not decode),
// resolve and check them (400), and start them (429 or 500). It returns
// start's summaries and jobs, or false after writing the error response.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, decode func(io.Reader) ([]spec.JobSpec, error)) ([]jobSummary, []*job, bool) {
	specs, err := decode(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, tooLarge)
			return nil, nil, false
		}
		writeError(w, http.StatusBadRequest, err)
		return nil, nil, false
	}
	resolved, err := spec.ResolveAll(specs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, nil, false
	}
	summaries, all, err := s.start(resolved)
	if err != nil {
		writeOverloaded(w, err)
		return nil, nil, false
	}
	return summaries, all, true
}

// start registers a resolved batch (registerJobs), finishes its fresh jobs
// whose results are already cached, and launches the rest. It returns one
// summary and one job per spec, in submission order (duplicates and
// attachments included). The summaries are rendered before the launch, so
// a cached job reads "done" and every launched one "running".
func (s *Server) start(resolved []spec.Resolved) ([]jobSummary, []*job, error) {
	all, fresh, err := s.registerJobs(resolved)
	if err != nil {
		return nil, nil, err
	}
	fresh = s.serveCached(fresh)
	summaries := make([]jobSummary, len(all))
	s.mu.Lock()
	for i, j := range all {
		summaries[i] = j.summaryLocked(false)
	}
	s.mu.Unlock()
	s.launch(fresh)
	return summaries, all, nil
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
// success it returns one job pointer per resolved spec (in submission order,
// duplicates and attachments included) plus the fresh subset, which the
// caller serves from the cache or launches.
func (s *Server) registerJobs(resolved []spec.Resolved) ([]*job, []*job, error) {
	ids := make([]string, len(resolved))
	for i, rj := range resolved {
		ids[i] = rj.Spec.Hash()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	freshIDs := make(map[string]bool)
	for _, id := range ids {
		if j, ok := s.jobs[id]; !ok || j.skipped {
			freshIDs[id] = true
		}
	}
	if limit := maxRunningJobs(); s.running+len(freshIDs) > limit {
		return nil, nil, &overloadError{
			fresh: len(freshIDs), running: s.running, limit: limit,
			retryAfter: retryAfterSeconds(),
		}
	}
	all := make([]*job, 0, len(resolved))
	var fresh []*job
	for i, rj := range resolved {
		id := ids[i]
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
			s.running++
			fresh = append(fresh, j)
		}
		all = append(all, j)
	}
	return all, fresh, nil
}

// serveCached finishes every fresh job whose result the cache already
// holds (run.ServeCached: lock-free, so a submission never waits on another
// job computing the same cache key) and returns the rest, which need an
// executor. A served job finishes like an executed one, through
// finishTraced, with its run.job span taken from its lookup's own tracer.
func (s *Server) serveCached(fresh []*job) []*job {
	misses := fresh[:0]
	for _, j := range fresh {
		tr := obs.NewTracer()
		if o, ok := run.ServeCached(obs.WithTracer(context.Background(), tr), s.sess, j.id, j.resolved); ok {
			s.finishTraced(tr, j.id, o)
		} else {
			misses = append(misses, j)
		}
	}
	return misses
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
		s.finishTraced(tr, o.Spec.Hash(), o)
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
// outcome on job id (the outcome spec's hash, which the caller already
// holds). The job's spans are all ended by the time its outcome is
// delivered, so the extraction is complete even while batch siblings are
// still running.
func (s *Server) finishTraced(tr *obs.Tracer, id string, o run.Outcome) {
	trace := obs.Subtree(tr.Export(), func(r obs.SpanRecord) bool {
		return r.Name == "run.job" && r.Attrs["job"] == id
	})
	s.record(id, o, trace)
}

// record records a suite outcome on job id, wakes every waiter, and evicts
// the oldest finished jobs beyond the table bound.
func (s *Server) record(id string, o run.Outcome, trace []obs.SpanRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	j.info = o.Info
	j.trace = trace
	if j.status == "running" {
		s.running--
	}
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
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	s.follow(j, true, false, r.Context().Done(), func(e event) bool {
		if err := enc.Encode(e); err != nil {
			return false
		}
		fl.Flush()
		return true
	})
}

// follow subscribes to one job and hands send its events: first, when
// snapshot is set, the job's counters at subscription; then each progress
// update; then, once the job finishes, its terminal status line, carrying
// the result when withResult is set and the job succeeded. It returns after
// the terminal line, or early when send reports the consumer gone, quit
// closes, or the server shuts down. Both job event streams and every job
// of a sweep stream run through it.
func (s *Server) follow(j *job, snapshot, withResult bool, quit <-chan struct{}, send func(event) bool) {
	// A burst of shard completions fits the buffer; beyond it onProgress
	// drops updates, and the next absolute counter catches the stream up.
	ch := make(chan [2]int, 64)
	s.mu.Lock()
	j.subs[ch] = struct{}{}
	first := event{ID: j.id, Done: j.progress, Total: j.trials}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(j.subs, ch)
		s.mu.Unlock()
	}()
	if snapshot && !send(first) {
		return
	}
	for {
		select {
		case p := <-ch:
			if !send(event{ID: j.id, Done: p[0], Total: p[1]}) {
				return
			}
		case <-j.done:
			s.mu.Lock()
			final := event{ID: j.id, Done: j.progress, Total: j.trials,
				Status: j.status, Cached: j.info.Cached, ReusedTrials: j.info.ReusedTrials,
				Error: j.errMsg, Skipped: j.skipped,
				ElapsedSeconds: j.info.Elapsed.Seconds()}
			if withResult && j.status == "done" {
				final.Result = j.result
			}
			s.mu.Unlock()
			send(final)
			return
		case <-quit:
			return
		case <-s.stop:
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
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	_, all, ok := s.admit(w, r, func(body io.Reader) ([]spec.JobSpec, error) {
		sw, err := spec.DecodeSweep(body)
		if err != nil {
			return nil, err
		}
		return sw.Expand()
	})
	if !ok {
		return
	}

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
		go s.follow(j, false, true, done, func(e event) bool {
			select {
			case merged <- e:
				return true
			case <-done:
				return false
			}
		})
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
