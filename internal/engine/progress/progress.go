// Package progress renders streaming trial counters for both campaign
// executors: the local session (internal/engine/run) and the fleet
// coordinator (internal/engine/coord). Each job owns one counter line keyed
// by its id — the spec's content hash, so two concurrent jobs of one
// campaign at different seeds, or successive auto-trials rounds, never share
// a line — with the campaign name only as its label. A job may also carry a
// block of rows beneath its line: the coordinator's per-worker table.
//
// On an interactive terminal the renderer maintains an in-place status
// block (rewritten with ANSI cursor movement) holding every active job's
// line and rows; a finished job leaves the block, and its final line and
// rows stay above it. On any other writer — CI logs, files, pipes — it
// emits newline-delimited milestone lines instead: one per completed
// quarter of a job, and the job's rows once, when it retires.
// Carriage returns would fold a whole run into one unreadable line and
// interleave mid-line across concurrent jobs.
package progress

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Renderer is one output stream's progress view. A nil *Renderer (progress
// off) is valid and ignores every call. All methods are safe for
// concurrent use: every write is made under the renderer's lock, whole lines
// at a time.
type Renderer struct {
	w   io.Writer
	tty bool

	mu        sync.Mutex
	order     []string        // active jobs (by id) in registration order
	jobs      map[string]*job // active jobs by id
	drawn     int             // lines the TTY status block currently occupies
	suspended bool            // block erased while other output is printing
	pending   []string        // permanent lines queued during suspension
}

// job is one active job's latest rendered state.
type job struct {
	line    string
	rows    []string
	quarter int // last milestone quarter emitted (non-TTY)
}

// New returns a renderer writing to w, or nil when w is nil.
func New(w io.Writer) *Renderer {
	if w == nil {
		return nil
	}
	return &Renderer{w: w, tty: isTTY(w), jobs: make(map[string]*job)}
}

// isTTY reports whether w is an interactive terminal. Only an *os.File can
// be one; the character-device check needs no platform dependencies.
func isTTY(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// Callback returns Update bound to one job without rows — the engine's
// progress hook — or nil when r is nil.
func (r *Renderer) Callback(id, name string) func(done, total int) {
	if r == nil {
		return nil
	}
	return func(done, total int) { r.Update(id, name, done, total, nil) }
}

// Update records job id's trial counter, labeled name, and — when rows is
// non-nil — replaces the job's row block. A job without rows completes when
// done reaches total: its line becomes permanent and it leaves the renderer.
// A job with rows completes only when Done retires it, because its rows can
// still change once its counter is full (a coordinator's last range streams
// its final trial before its result is merged).
func (r *Renderer) Update(id, name string, done, total int, rows []string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		j = &job{}
		r.jobs[id] = j
		r.order = append(r.order, id)
	}
	j.line = fmt.Sprintf("%-28s %4d/%d trials", name, done, total)
	if rows != nil {
		j.rows = rows
	}
	complete := done >= total && j.rows == nil
	if complete {
		r.removeLocked(id)
	}
	if !r.tty {
		// Milestones: one line whenever the job crosses into a new quarter
		// of its total. done is monotonic per job, so at most four lines
		// appear and their counters never go backwards.
		q := 4
		if total > 0 {
			q = 4 * done / total
		}
		if q > j.quarter {
			j.quarter = q
			fmt.Fprintln(r.w, j.line)
		}
		return
	}
	var permanent []string
	if complete {
		permanent = j.block()
	}
	r.emitLocked(permanent)
}

// block is the job's line followed by its indented rows.
func (j *job) block() []string {
	lines := []string{j.line}
	for _, row := range j.rows {
		lines = append(lines, "  "+row)
	}
	return lines
}

// Suspend erases the TTY status block so the caller can print other output
// (a finished campaign's report) without the next repaint's cursor-up
// destroying it; state keeps accumulating until Resume repaints the block
// below whatever was printed. Non-TTY lines are self-contained, so
// suspension only gates the block.
func (r *Renderer) Suspend() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.suspended = true
	if r.tty && r.drawn > 0 {
		fmt.Fprintf(r.w, "\r\x1b[%dA\x1b[J", r.drawn)
		r.drawn = 0
	}
}

// Resume repaints the status block (and flushes completion lines queued
// while suspended) at the current cursor position.
func (r *Renderer) Resume() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.suspended = false
	if r.tty && (len(r.pending) > 0 || len(r.order) > 0) {
		r.redrawLocked(r.pending)
		r.pending = nil
	}
}

// Done retires a job once its execution returns. A job still active (one
// with rows, or one that errored before its counter filled) leaves the TTY
// block with its line and rows kept above it; on other writers its rows
// print now, beneath its milestones. The job's state resets, so a later
// re-run under the same id reports afresh.
func (r *Renderer) Done(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return
	}
	r.removeLocked(id)
	if r.tty {
		r.emitLocked(j.block())
		return
	}
	if rows := j.block()[1:]; len(rows) > 0 {
		io.WriteString(r.w, strings.Join(rows, "\n")+"\n")
	}
}

func (r *Renderer) removeLocked(id string) {
	delete(r.jobs, id)
	for i, n := range r.order {
		if n == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// emitLocked repaints the TTY block with permanent lines above it, or
// queues those lines while suspended.
func (r *Renderer) emitLocked(permanent []string) {
	if r.suspended {
		r.pending = append(r.pending, permanent...)
		return
	}
	r.redrawLocked(permanent)
}

// redrawLocked repaints the TTY status block in place: cursor up to the
// block's first line, erase downward, print any newly permanent lines, then
// every active job's line and rows.
func (r *Renderer) redrawLocked(permanent []string) {
	var b strings.Builder
	if r.drawn > 0 {
		fmt.Fprintf(&b, "\r\x1b[%dA\x1b[J", r.drawn)
	}
	for _, l := range permanent {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	r.drawn = 0
	for _, id := range r.order {
		for _, l := range r.jobs[id].block() {
			b.WriteString(l)
			b.WriteByte('\n')
			r.drawn++
		}
	}
	io.WriteString(r.w, b.String())
}
