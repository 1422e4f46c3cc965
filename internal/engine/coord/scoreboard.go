package coord

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Scoreboard renders the coordinator's live fleet view for one job: an
// aggregate trial counter plus one row per worker (ranges won, trials/sec,
// retries, stall hedges). On an interactive terminal the block repaints in
// place (ANSI cursor movement) as ranges complete; on any other writer —
// CI logs, pipes — Progress falls back to the local runner's
// newline-delimited quarter-milestone lines ("id: done/total trials") and
// the per-worker rows appear once, at Final. Wire
// Progress to Options.OnProgress and Update to Options.OnScoreboard; both
// are safe for the coordinator's serialized callbacks plus a concurrent
// Final.
type Scoreboard struct {
	w   io.Writer
	tty bool
	id  string

	mu          sync.Mutex
	scores      []WorkerScore
	done, total int
	drawn       int // lines the TTY block currently occupies
	lastQuarter int
	finished    bool
}

// NewScoreboard returns a renderer for one job's coordinated execution,
// writing to w (normally stderr) and labeling the counter line with id.
func NewScoreboard(w io.Writer, id string) *Scoreboard {
	return &Scoreboard{w: w, tty: isTTY(w), id: id, lastQuarter: -1}
}

// isTTY reports whether w is an interactive terminal (only an *os.File can
// be; the character-device check needs no platform dependencies).
func isTTY(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// Progress records the aggregate trial counter (Options.OnProgress).
// Nil-safe, like every Scoreboard method, so front-ends can hold a nil
// *Scoreboard when progress is off.
func (s *Scoreboard) Progress(done, total int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done, s.total = done, total
	if !s.tty {
		if total <= 0 {
			return
		}
		if q := 4 * done / total; q > s.lastQuarter {
			s.lastQuarter = q
			fmt.Fprintf(s.w, "%s: %d/%d trials\n", s.id, done, total)
		}
		return
	}
	s.redrawLocked()
}

// Update records a fresh per-worker snapshot (Options.OnScoreboard).
func (s *Scoreboard) Update(scores []WorkerScore) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scores = scores
	if s.tty {
		s.redrawLocked()
	}
}

// Final renders the closing state: on a TTY the block repaints once more
// and stays (subsequent output flows below it); elsewhere it prints one
// summary line per worker that did anything, so log readers still get the
// fleet attribution the live block would have shown.
func (s *Scoreboard) Final() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return
	}
	s.finished = true
	if s.tty {
		s.redrawLocked()
		s.drawn = 0 // leave the final block in place
		return
	}
	for _, ws := range s.scores {
		if ws.Ranges == 0 && ws.Retries == 0 && ws.Hedges == 0 && ws.Steals == 0 && ws.ReusedTrials == 0 {
			continue
		}
		fmt.Fprintf(s.w, "%s: worker %s: ranges=%d trials=%d trials/s=%.1f retries=%d hedges=%d steals=%d reused=%d\n",
			s.id, ws.Worker, ws.Ranges, ws.Trials, ws.TrialsPerSec, ws.Retries, ws.Hedges, ws.Steals, ws.ReusedTrials)
	}
}

// redrawLocked repaints the TTY block: the job's counter line plus one row
// per worker. The caller holds s.mu.
func (s *Scoreboard) redrawLocked() {
	var b strings.Builder
	if s.drawn > 0 {
		fmt.Fprintf(&b, "\r\x1b[%dA\x1b[J", s.drawn)
	}
	fmt.Fprintf(&b, "%-28s %4d/%d trials\n", s.id, s.done, s.total)
	lines := 1
	if len(s.scores) > 0 {
		fmt.Fprintf(&b, "  %-36s %6s %9s %8s %7s %7s %7s\n",
			"worker", "ranges", "trials/s", "retries", "hedges", "steals", "reused")
		lines++
		for _, ws := range s.scores {
			fmt.Fprintf(&b, "  %-36s %6d %9.1f %8d %7d %7d %7d\n",
				ws.Worker, ws.Ranges, ws.TrialsPerSec, ws.Retries, ws.Hedges, ws.Steals, ws.ReusedTrials)
			lines++
		}
	}
	s.drawn = lines
	io.WriteString(s.w, b.String())
}
