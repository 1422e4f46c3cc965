package progress

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// newTTY builds a renderer forced onto the terminal path so the status
// block's rendering is testable against a plain buffer.
func newTTY(w *bytes.Buffer) *Renderer {
	r := New(w)
	r.tty = true
	return r
}

func TestTTYStatusBlockRendersConcurrentCampaigns(t *testing.T) {
	var buf bytes.Buffer
	p := newTTY(&buf)
	a, b := p.Callback("alpha", "alpha"), p.Callback("beta", "beta")

	a(1, 4)
	first := buf.String()
	if strings.Contains(first, "\x1b[") {
		t.Errorf("first draw should not move the cursor: %q", first)
	}
	if !strings.Contains(first, "alpha") || !strings.Contains(first, "1/4 trials") {
		t.Errorf("first draw missing the campaign line: %q", first)
	}

	b(1, 2) // both campaigns now own a line in the block
	if got := buf.String(); !strings.Contains(got, "\x1b[1A\x1b[J") {
		t.Errorf("second campaign should repaint the one-line block: %q", got)
	}

	b(2, 2) // beta completes: its line becomes permanent, alpha stays active
	a(4, 4) // alpha completes: block empties
	p.Done("alpha")
	p.Done("beta")

	out := buf.String()
	ia := strings.LastIndex(out, "alpha                           4/4 trials")
	ib := strings.LastIndex(out, "beta                            2/2 trials")
	if ia < 0 || ib < 0 || ib > ia {
		t.Errorf("completion lines missing or out of completion order (beta first): %q", out)
	}
	if p.drawn != 0 || len(p.order) != 0 {
		t.Errorf("block not empty after both campaigns finished: drawn=%d order=%v", p.drawn, p.order)
	}
}

// TestSuspendProtectsInterleavedOutput: while a report is printing, the
// block must be erased (so no cursor-up can destroy the report) and updates
// must accumulate silently, repainting only on resume.
func TestSuspendProtectsInterleavedOutput(t *testing.T) {
	var buf bytes.Buffer
	p := newTTY(&buf)
	a, b := p.Callback("alpha", "alpha"), p.Callback("beta", "beta")
	a(1, 4)
	b(1, 2)

	p.Suspend()
	if p.drawn != 0 {
		t.Errorf("suspend left %d drawn block lines", p.drawn)
	}
	mark := buf.Len()
	a(2, 4) // active update while suspended: nothing may be written
	b(2, 2) // completion while suspended: queued, not written
	if buf.Len() != mark {
		t.Errorf("suspended renderer wrote %q", buf.String()[mark:])
	}
	buf.Reset()
	p.Resume()
	out := buf.String()
	if !strings.Contains(out, "beta") || !strings.Contains(out, "2/2 trials") {
		t.Errorf("resume did not flush the queued completion line: %q", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2/4 trials") {
		t.Errorf("resume did not repaint the active block: %q", out)
	}
	if strings.Contains(out, "\x1b[") && strings.Index(out, "\x1b[") < strings.Index(out, "beta") {
		t.Errorf("resume moved the cursor before printing (would erase prior output): %q", out)
	}
}

// TestTTYRowBlock covers a job's row block on a terminal: every repaint
// moves the cursor up over exactly the lines drawn (job lines, the header
// row, and the worker rows), a finished job's line and rows stay above the
// live block, and Suspend erases the rows along with the job line.
func TestTTYRowBlock(t *testing.T) {
	var buf bytes.Buffer
	p := newTTY(&buf)
	table := func(ranges int) []string {
		return []string{"worker   ranges", "http://w1 " + strings.Repeat("x", ranges), "http://w2"}
	}

	p.Update("fleet", "fig06", 2, 8, table(1)) // 1 job line + 3 rows
	if p.drawn != 4 {
		t.Fatalf("drawn %d lines, want 4 (job line + header + 2 worker rows)", p.drawn)
	}
	p.Update("local", "fig11", 1, 4, nil) // a second job without rows
	if !strings.Contains(buf.String(), "\x1b[4A\x1b[J") || p.drawn != 5 {
		t.Errorf("repaint should move up over the 4-line block and draw 5: drawn=%d %q", p.drawn, buf.String())
	}

	p.Update("fleet", "fig06", 8, 8, table(1)) // a job with rows stays live
	if p.drawn != 5 {
		t.Errorf("a full counter retired a job with rows: drawn=%d, want 5", p.drawn)
	}
	p.Update("fleet", "fig06", 8, 8, table(2)) // its rows still change
	p.Done("fleet")                            // and it finishes
	mark := buf.Len()
	p.Update("local", "fig11", 2, 4, nil)
	repaint := buf.String()[mark:]
	if !strings.HasPrefix(repaint, "\r\x1b[1A\x1b[J") || p.drawn != 1 {
		t.Errorf("after fleet finished the live block is fig11's one line, got drawn=%d %q", p.drawn, repaint)
	}
	if strings.Contains(repaint, "http://w1") {
		t.Errorf("finished job's rows were repainted into the live block: %q", repaint)
	}
	out := buf.String()
	final := strings.Index(out, "fig06                           8/8 trials\n  worker   ranges\n  http://w1 xx\n  http://w2\n")
	if final < 0 || final > strings.LastIndex(out, "fig11                           2/4 trials") {
		t.Errorf("finished job's line and rows should stay above the live block: %q", out)
	}

	// Suspend erases a block holding rows: the cursor moves up over the job
	// line and every row.
	p.Update("fleet2", "fig07", 1, 8, table(1))
	if p.drawn != 5 {
		t.Fatalf("drawn %d, want 5 (fig11 + fig07 + 3 rows)", p.drawn)
	}
	mark = buf.Len()
	p.Suspend()
	if got := buf.String()[mark:]; got != "\r\x1b[5A\x1b[J" || p.drawn != 0 {
		t.Errorf("suspend erased %q (drawn %d), want the whole 5-line block", got, p.drawn)
	}
}

// TestRowsNonTTY: on a non-terminal writer a job with rows emits
// quarter-milestone lines while live and its rows once, when it retires —
// never ANSI control sequences.
func TestRowsNonTTY(t *testing.T) {
	var buf strings.Builder
	p := New(&buf)
	rows := []string{"worker http://w1 ranges=2", "worker http://w2 ranges=0"}
	p.Update("job", "fig06", 0, 8, nil)
	p.Update("job", "fig06", 4, 8, rows)
	p.Update("job", "fig06", 8, 8, rows)
	p.Update("job", "fig06", 8, 8, rows) // same quarter: no new milestone
	p.Done("job")
	want := "fig06                           4/8 trials\n" +
		"fig06                           8/8 trials\n" +
		"  worker http://w1 ranges=2\n" +
		"  worker http://w2 ranges=0\n"
	if got := buf.String(); got != want {
		t.Errorf("non-TTY output\n got %q\nwant %q", got, want)
	}

	// A nil renderer (progress off) is a safe no-op.
	var off *Renderer
	if New(nil) != nil || off.Callback("x", "x") != nil {
		t.Error("a nil writer should give a nil renderer and a nil callback")
	}
	off.Update("x", "x", 1, 2, rows)
	off.Suspend()
	off.Resume()
	off.Done("x")
}

func TestProgressDoneResetsMilestones(t *testing.T) {
	var buf bytes.Buffer
	p := New(&buf)
	cb := p.Callback("again", "again")
	cb(4, 4)
	p.Done("again")
	cb = p.Callback("again", "again")
	cb(4, 4) // a re-run of the same campaign must report afresh
	if got := strings.Count(buf.String(), "4/4 trials"); got != 2 {
		t.Errorf("re-run milestone emitted %d times, want 2: %q", got, buf.String())
	}
}

func TestIsTTY(t *testing.T) {
	if isTTY(&bytes.Buffer{}) {
		t.Error("a bytes.Buffer is not a terminal")
	}
	if isTTY(nil) {
		t.Error("nil writer is not a terminal")
	}
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("cannot open %s: %v", os.DevNull, err)
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 && !isTTY(f) {
		t.Errorf("%s is a character device but isTTY says no", os.DevNull)
	}
}
