package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracer collects completed spans for one run. It is safe for concurrent
// use; spans are recorded when they End. A Tracer reaches code through a
// context (WithTracer), and code creates spans with Start — which is a
// no-op returning a nil *Span when the context carries no tracer, so
// instrumented hot paths cost nothing in untraced runs.
type Tracer struct {
	mu     sync.Mutex
	nextID int64
	spans  []SpanRecord
	now    func() time.Time // wall clock; tests substitute a fake
}

// NewTracer returns an empty tracer using the wall clock.
func NewTracer() *Tracer { return &Tracer{now: time.Now} }

// SpanRecord is one completed span: the serialized, wire-portable form —
// what a locd worker returns to the coordinator and what the Chrome trace
// export renders. Times are microseconds since the Unix epoch.
type SpanRecord struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"` // 0 = a root span
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Span is one in-flight traced operation. A nil *Span is the disabled
// form: every method is a no-op, so call sites need no tracing-enabled
// branches except around attribute computation they want to skip.
type Span struct {
	tracer *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs map[string]any
	ended bool
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer returns a context carrying the tracer; Start on the returned
// context (and its descendants) records spans into it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the context's tracer, or nil when tracing is off.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// Start begins a span named name as a child of the context's current span.
// When the context carries no tracer it returns (ctx, nil) without
// allocating — the zero-cost disabled path — and the nil span's methods
// are all no-ops.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	if t == nil {
		return ctx, nil
	}
	var parentID int64
	if p, _ := ctx.Value(spanKey).(*Span); p != nil {
		parentID = p.id
	}
	s := t.startSpan(name, parentID)
	return context.WithValue(ctx, spanKey, s), s
}

func (t *Tracer) startSpan(name string, parent int64) *Span {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Span{tracer: t, id: id, parent: parent, name: name, start: t.now()}
}

// SetAttr attaches a key/value attribute; nil-safe. Callers on
// allocation-sensitive paths should guard attribute computation with a nil
// check, because boxing the value into any allocates before the no-op.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
	return s
}

// End completes the span and records it on the tracer; nil-safe and
// idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	end := s.tracer.now()
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.start.UnixMicro(),
		DurUS:   end.Sub(s.start).Microseconds(),
		Attrs:   attrs,
	}
	s.tracer.mu.Lock()
	s.tracer.spans = append(s.tracer.spans, rec)
	s.tracer.mu.Unlock()
}

// Export snapshots the completed spans, ordered by start time (ties by
// id), which makes exports deterministic for a deterministic clock.
func (t *Tracer) Export() []SpanRecord {
	t.mu.Lock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUS != out[j].StartUS {
			return out[i].StartUS < out[j].StartUS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Import grafts externally produced span records (a locd worker's job
// subtree, say) under parent: IDs are remapped into this tracer's space,
// records whose parent is outside the imported set hang off the given
// parent span, and timestamps are kept as-is — cross-machine clock skew
// shows up as offset, not corruption. A nil parent imports them as roots.
func (t *Tracer) Import(parent *Span, recs []SpanRecord) {
	if t == nil || len(recs) == 0 {
		return
	}
	var parentID int64
	if parent != nil {
		parentID = parent.id
	}
	idMap := make(map[int64]int64, len(recs))
	t.mu.Lock()
	for _, r := range recs {
		t.nextID++
		idMap[r.ID] = t.nextID
	}
	for _, r := range recs {
		nr := r
		nr.ID = idMap[r.ID]
		if mapped, ok := idMap[r.Parent]; ok && r.Parent != 0 {
			nr.Parent = mapped
		} else {
			nr.Parent = parentID
		}
		t.spans = append(t.spans, nr)
	}
	t.mu.Unlock()
}

// Subtree filters records to the spans rooted at those matching root —
// the matches plus all their descendants — preserving input order.
func Subtree(recs []SpanRecord, root func(SpanRecord) bool) []SpanRecord {
	in := make(map[int64]bool)
	// Parents precede children in recorded order often, but not always
	// (a parent ends after its children). Iterate to a fixed point.
	for {
		grew := false
		for _, r := range recs {
			if in[r.ID] {
				continue
			}
			if root(r) || (r.Parent != 0 && in[r.Parent]) {
				in[r.ID] = true
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	var out []SpanRecord
	for _, r := range recs {
		if in[r.ID] {
			out = append(out, r)
		}
	}
	return out
}

// WriteChromeTraceFile writes the Chrome trace_event export to path — the
// backing for the CLIs' -trace flag. A nil tracer (tracing off) writes
// nothing.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chromeEvent is one Chrome trace_event "complete" (ph "X") event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the completed spans as a Chrome trace_event
// JSON array (loadable in chrome://tracing and Perfetto): one complete
// ("X") event per span, timestamps in microseconds. Each span's tid is its
// root ancestor's id, so every top-level operation gets its own track and
// nested children stack beneath it; span id and parent ride along in args.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	recs := t.Export()
	parentOf := make(map[int64]int64, len(recs))
	for _, r := range recs {
		parentOf[r.ID] = r.Parent
	}
	rootOf := func(id int64) int64 {
		for i := 0; i < len(recs); i++ { // bounded walk; cycles cannot happen
			p := parentOf[id]
			if p == 0 {
				return id
			}
			id = p
		}
		return id
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, r := range recs {
		args := make(map[string]any, len(r.Attrs)+2)
		for k, v := range r.Attrs {
			args[k] = v
		}
		args["span_id"] = r.ID
		if r.Parent != 0 {
			args["parent_id"] = r.Parent
		}
		ev := chromeEvent{
			Name: r.Name, Cat: "obs", Ph: "X",
			TS: r.StartUS, Dur: r.DurUS,
			PID: 1, TID: rootOf(r.ID), Args: args,
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(recs)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "  %s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
