package coord

// Scheduling: per-worker contiguous assignments drawn down in shard-aligned
// chunks, work stealing for idle (and newly joined) workers, registry
// polling for mid-run membership changes, and reuse of the fleet's
// range-keyed result caches. Only *unsubmitted* trial intervals ever move
// between workers, so no trial is computed twice by scheduling —
// duplication can still come from hedging, where it is deliberate.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/cache"
	"resilientloc/internal/engine/fleet"
	"resilientloc/internal/engine/spec"
)

// newSlotLocked appends one sub-range slot (range, result, progress); the
// caller holds c.mu.
func (c *coordinator) newSlotLocked(rg spec.Range) int {
	c.ranges = append(c.ranges, rg)
	c.parts = append(c.parts, nil)
	c.rangeDone = append(c.rangeDone, 0)
	return len(c.ranges) - 1
}

// distribute seeds the assignment pool from the uncovered gaps: the largest
// gap is split in half until there is roughly one interval per worker (or
// the pieces reach the minimum chunk), then intervals go to workers largest
// first, overflow to the spare pool.
func (c *coordinator) distribute(gaps []spec.Range) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pool := append([]spec.Range(nil), gaps...)
	for len(pool) < len(c.workers) {
		li, ln := -1, 0
		for i, g := range pool {
			if n := g.Hi - g.Lo; n > ln {
				li, ln = i, n
			}
		}
		if li < 0 || ln < 2*c.minChunk {
			break
		}
		half := ln / 2 / c.minChunk * c.minChunk
		if half < c.minChunk {
			half = c.minChunk
		}
		g := pool[li]
		pool[li] = spec.Range{Lo: g.Lo, Hi: g.Hi - half}
		pool = append(pool, spec.Range{Lo: g.Hi - half, Hi: g.Hi})
	}
	sort.Slice(pool, func(a, b int) bool {
		if da, db := pool[a].Hi-pool[a].Lo, pool[b].Hi-pool[b].Lo; da != db {
			return da > db
		}
		return pool[a].Lo < pool[b].Lo
	})
	for i := range pool {
		g := pool[i]
		if i < len(c.workers) {
			c.assign[c.workers[i]] = &g
		} else {
			c.spare = append(c.spare, g)
		}
	}
}

// nextChunk carves the worker's next sub-range to submit, refilling its
// assignment from the spare pool or by stealing when it runs dry. ok=false
// means the worker is done: the pool is drained (or the registry declared
// the worker gone).
func (c *coordinator) nextChunk(worker string) (i int, ok bool) {
	var stole *spec.Range
	var victim string
	c.mu.Lock()
	if c.departed[worker] {
		c.mu.Unlock()
		return 0, false
	}
	if a := c.assign[worker]; a == nil || a.Lo >= a.Hi {
		rg, from, refilled := c.refillLocked(worker)
		if !refilled {
			c.mu.Unlock()
			return 0, false
		}
		if from != "" {
			stole, victim = &rg, from
		}
	}
	i = c.carveLocked(worker)
	c.maybeDrainLocked()
	c.mu.Unlock()
	if stole != nil {
		obsSteals.Inc()
		warnTo(c.warn, "coord: %s: idle worker %s stole [%d, %d) from %s\n",
			c.job.Spec.ID, worker, stole.Lo, stole.Hi, victim)
		c.render()
	}
	return i, true
}

// refillLocked hands the worker a fresh assignment: the largest spare
// interval if any, else the tail half of the largest unsubmitted assignment
// in the fleet (a steal). Returns the new assignment and, for a steal, the
// victim. The caller holds c.mu.
func (c *coordinator) refillLocked(worker string) (spec.Range, string, bool) {
	if len(c.spare) > 0 {
		li, ln := 0, 0
		for i, g := range c.spare {
			if n := g.Hi - g.Lo; n > ln {
				li, ln = i, n
			}
		}
		g := c.spare[li]
		c.spare = append(c.spare[:li], c.spare[li+1:]...)
		c.assign[worker] = &g
		return g, "", true
	}
	victim, remaining := "", 0
	for w, a := range c.assign {
		if w == worker || a == nil {
			continue
		}
		if n := a.Hi - a.Lo; n > remaining {
			victim, remaining = w, n
		}
	}
	if victim == "" {
		return spec.Range{}, "", false
	}
	v := c.assign[victim]
	n := remaining / 2 / c.minChunk * c.minChunk
	if n < c.minChunk {
		n = remaining // too small to split; take the whole interval
	}
	g := spec.Range{Lo: v.Hi - n, Hi: v.Hi}
	v.Hi -= n
	if v.Lo >= v.Hi {
		delete(c.assign, victim)
	}
	c.assign[worker] = &g
	c.tallyLocked(worker).steals++
	return g, victim, true
}

// carveLocked cuts the next chunk off the worker's assignment — half of
// what remains, shard-aligned, or everything when what remains is small —
// and registers its slot. The caller holds c.mu and guarantees a non-empty
// assignment.
func (c *coordinator) carveLocked(worker string) int {
	a := c.assign[worker]
	remaining := a.Hi - a.Lo
	n := remaining
	if remaining > 2*c.minChunk {
		half := (remaining + 1) / 2
		if r := half % c.minChunk; r != 0 {
			half += c.minChunk - r
		}
		if remaining-half >= c.minChunk {
			n = half
		}
	}
	rg := spec.Range{Lo: a.Lo, Hi: a.Lo + n}
	a.Lo += n
	if a.Lo >= a.Hi {
		delete(c.assign, worker)
	}
	return c.newSlotLocked(rg)
}

// maybeDrainLocked closes the drain channel once the assignment pool is
// empty — every trial interval has been carved and submitted (or resumed).
// Nothing refills a drained pool, so the close is final. Caller holds c.mu.
func (c *coordinator) maybeDrainLocked() {
	if len(c.spare) > 0 {
		return
	}
	for _, a := range c.assign {
		if a != nil && a.Lo < a.Hi {
			return
		}
	}
	select {
	case <-c.drainCh:
	default:
		close(c.drainCh)
	}
}

// run is the coordinator's top level: optionally adopt work from the
// fleet's caches, seed the pool with the uncovered gaps, run one drawing
// loop per worker (plus the registry poller), and merge. The first range
// to fail cancels the rest: a range failure is fatal to the whole job, so
// letting long sibling ranges run to completion would only delay the
// inevitable error.
func (c *coordinator) run(ctx context.Context) (*spec.Value, error) {
	gaps := []spec.Range{{Lo: 0, Hi: c.job.Trials}}
	if c.reuseOn {
		full, g := c.probeCaches(ctx)
		if full != nil {
			return full, nil
		}
		gaps = g
	}
	if len(gaps) == 0 {
		return c.merge()
	}
	c.distribute(gaps)

	dctx, dcancel := context.WithCancel(ctx)
	defer dcancel()
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		dcancel()
	}
	spawn := func(worker string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.workerLoop(dctx, worker, fail)
		}()
	}
	c.mu.Lock()
	workers := append([]string(nil), c.workers...)
	c.mu.Unlock()
	for _, w := range workers {
		spawn(w)
	}
	if c.discover != "" {
		// The poller spawns drivers for mid-run joiners. It holds a wg slot
		// itself, so wg cannot complete while a spawn may still happen.
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.pollFleet(dctx, spawn)
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.merge()
}

// workerLoop is one worker's drawing loop: carve a chunk, run it (first
// attempt on this worker — retries and hedges go wherever pickWorker
// sends them), repeat until the pool drains.
func (c *coordinator) workerLoop(ctx context.Context, worker string, fail func(error)) {
	for ctx.Err() == nil {
		i, ok := c.nextChunk(worker)
		if !ok {
			return
		}
		if err := c.runRange(ctx, i, worker); err != nil {
			fail(err)
			return
		}
	}
}

// pollFleet re-reads the membership registry until the run is cancelled or
// the pool drains, spawning a driver for every worker that joins mid-run.
func (c *coordinator) pollFleet(ctx context.Context, spawn func(worker string)) {
	t := time.NewTicker(c.poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.drainCh:
			return
		case <-t.C:
		}
		view, err := fleet.Discover(ctx, c.client, c.discover)
		if err != nil {
			continue // transient registry trouble; keep the fleet we have
		}
		for _, w := range c.syncFleet(view.URLs()) {
			spawn(w)
		}
	}
}

// syncFleet reconciles the coordinator's worker list with a registry
// snapshot: new members are added (and returned for spawning), and members
// the registry no longer lists are marked departed with their unsubmitted
// work moved to the spare pool. Only registry-sourced knowledge departs a
// worker — a static -workers entry that never announced itself is left
// alone.
func (c *coordinator) syncFleet(urls []string) []string {
	now := make(map[string]bool, len(urls))
	for _, u := range urls {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			now[u] = true
		}
	}
	var added, gone []string
	c.mu.Lock()
	known := make(map[string]bool, len(c.workers))
	for _, w := range c.workers {
		known[w] = true
	}
	for u := range now {
		c.discovered[u] = true
		delete(c.departed, u) // a re-announce revives a departed worker
		if !known[u] {
			c.workers = append(c.workers, u)
			c.joined++
			added = append(added, u)
		}
	}
	for _, w := range c.workers {
		if c.discovered[w] && !now[w] && !c.departed[w] {
			c.departed[w] = true
			c.left++
			gone = append(gone, w)
			if a := c.assign[w]; a != nil && a.Lo < a.Hi {
				c.spare = append(c.spare, *a)
			}
			delete(c.assign, w)
		}
	}
	sort.Strings(added)
	c.mu.Unlock()
	for _, w := range added {
		warnTo(c.warn, "coord: %s: worker %s joined the fleet mid-run\n", c.job.Spec.ID, w)
	}
	for _, w := range gone {
		warnTo(c.warn, "coord: %s: worker %s left the fleet; reassigning its unsubmitted work\n", c.job.Spec.ID, w)
	}
	if len(added)+len(gone) > 0 {
		c.render()
	}
	return added
}

// Wire shape of the worker cache-probe API (the subset reuse consumes). A
// range entry's trials field is the full trial count stamped on the entry's
// key — equal to the probe's trials for this job's own ranges, different
// for cross-count entries.
type wireProbe struct {
	Trials int                `json:"trials"`
	Full   string             `json:"full"`
	Ranges []cache.RangeEntry `json:"ranges"`
}

// probeCaches asks every worker for the cache entries it banked for this
// job's content address and returns the uncovered gaps of the cover
// engine.CoverRanges chains out of the range entries — or, when some worker
// holds the finished result, that full value directly. Adopted ranges
// become completed slots.
func (c *coordinator) probeCaches(ctx context.Context) (*spec.Value, []spec.Range) {
	c.mu.Lock()
	workers := append([]string(nil), c.workers...)
	c.mu.Unlock()

	type entry struct{ worker, hash string }
	var cands []engine.CachedRange
	var where, fulls []entry
	body := c.job.Spec.Canonical()
	for _, w := range workers {
		probe, err := c.probeWorker(ctx, w, body)
		if err != nil {
			warnTo(c.warn, "coord: %s: cache probe of %s failed: %v\n", c.job.Spec.ID, w, err)
			continue
		}
		if probe.Trials != c.job.Trials {
			// The worker resolves the spec to a different trial count than we
			// do — a version skew its entries cannot safely bridge.
			warnTo(c.warn, "coord: %s: %s resolves %d trials, coordinator %d; ignoring its cache\n",
				c.job.Spec.ID, w, probe.Trials, c.job.Trials)
			continue
		}
		if probe.Full != "" {
			fulls = append(fulls, entry{w, probe.Full})
		}
		for _, re := range probe.Ranges {
			cands = append(cands, engine.CachedRange{Lo: re.Lo, Hi: re.Hi, Trials: re.Trials})
			where = append(where, entry{w, re.Hash})
		}
	}

	// A banked full result short-circuits all re-execution.
	for _, fe := range fulls {
		val, err := c.fetchEntry(ctx, fe.worker, fe.hash)
		if err != nil {
			continue
		}
		c.mu.Lock()
		c.reusedRanges = 1
		c.tallyLocked(fe.worker).reused += c.job.Trials
		c.mu.Unlock()
		obsReused.Add(int64(c.job.Trials))
		warnTo(c.warn, "coord: %s: reused the complete result from %s's cache\n", c.job.Spec.ID, fe.worker)
		return val, nil
	}

	cv := engine.CoverRanges(c.job.Trials, cands, func(i int) *engine.Partial {
		val, err := c.fetchEntry(ctx, where[i].worker, where[i].hash)
		if err != nil {
			return nil
		}
		return val.Partial
	})
	for _, err := range cv.Rejected {
		warnTo(c.warn, "coord: %s: %v\n", c.job.Spec.ID, err)
	}
	reused := 0
	c.mu.Lock()
	for k, i := range cv.Chosen {
		rg := spec.Range{Lo: cands[i].Lo, Hi: cands[i].Hi}
		n := rg.Hi - rg.Lo
		slot := c.newSlotLocked(rg)
		c.parts[slot] = &spec.Value{Partial: cv.Parts[k]}
		c.rangeDone[slot] = n
		c.tallyLocked(where[i].worker).reused += n
		reused += n
	}
	c.reusedRanges += len(cv.Chosen)
	c.mu.Unlock()
	if reused > 0 {
		obsReused.Add(int64(reused))
		warnTo(c.warn, "coord: %s: reused %d of %d trials in %d ranges from fleet caches\n",
			c.job.Spec.ID, reused, c.job.Trials, len(cv.Chosen))
	}
	gaps := make([]spec.Range, len(cv.Gaps))
	for i, g := range cv.Gaps {
		gaps[i] = spec.Range{Lo: g[0], Hi: g[1]}
	}
	return nil, gaps
}

// probeWorker POSTs the job spec to one worker's cache-probe endpoint.
func (c *coordinator) probeWorker(ctx context.Context, worker string, body []byte) (*wireProbe, error) {
	var probe wireProbe
	if err := c.call(ctx, worker+"/v1/cache/ranges", body, http.StatusOK, &probe); err != nil {
		return nil, err
	}
	return &probe, nil
}

// fetchEntry retrieves one content-addressed cache entry from a worker and
// returns its stored value.
func (c *coordinator) fetchEntry(ctx context.Context, worker, hash string) (*spec.Value, error) {
	var e struct {
		Value *spec.Value `json:"value"`
	}
	if err := c.call(ctx, worker+"/v1/cache/"+hash, nil, http.StatusOK, &e); err != nil {
		return nil, fmt.Errorf("cache entry %s on %s: %w", hash, worker, err)
	}
	if e.Value == nil {
		return nil, fmt.Errorf("cache entry %s on %s carries no value", hash, worker)
	}
	return e.Value, nil
}
