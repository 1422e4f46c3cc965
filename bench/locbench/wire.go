package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// wireClient drives jobs through a locd service the way a client does:
// submit, follow the event stream to its terminal line, fetch the result.
type wireClient struct {
	http *http.Client
}

// newWireClient returns a client whose transport records a span around
// every locd call when the request's context carries a tracer. The
// coordinator is handed the same client, so its calls are measured the
// same way.
func newWireClient() *wireClient {
	t := http.DefaultTransport.(*http.Transport).Clone()
	// Two closed-loop clients plus the coordinator's per-range streams
	// keep several connections to one loopback host busy at once.
	t.MaxIdleConnsPerHost = 16
	return &wireClient{http: &http.Client{Transport: spanTransport{next: t}}}
}

// wireJob is the subset of locd's job summary the benchmark reads.
type wireJob struct {
	ID           string           `json:"id"`
	Status       string           `json:"status"`
	Cached       bool             `json:"cached"`
	ReusedTrials int              `json:"reused_trials"`
	Error        string           `json:"error"`
	Result       *spec.Value      `json:"result"`
	Trace        []obs.SpanRecord `json:"trace"`
}

func (c *wireClient) run(ctx context.Context, base string, sp spec.JobSpec) outcome {
	ctx, span := obs.Start(ctx, "locsrv.job")
	defer span.End()
	js, err := c.submit(ctx, base, sp)
	if err != nil {
		return outcome{err: err}
	}
	if js.Status == "running" {
		if err := c.stream(ctx, base, js.ID); err != nil {
			return outcome{err: err}
		}
	}
	if js, err = c.fetch(ctx, base, js.ID); err != nil {
		return outcome{err: err}
	}
	if js.Status != "done" || js.Result == nil {
		return outcome{err: fmt.Errorf("job %s: status %q: %s", js.ID, js.Status, js.Error)}
	}
	if tr := obs.FromContext(ctx); tr != nil {
		// The server's own span tree for the job (run.job and the engine
		// spans beneath it), under the client's round trip.
		tr.Import(span, js.Trace)
	}
	return outcome{val: js.Result, cached: js.Cached, reused: js.ReusedTrials}
}

func (c *wireClient) submit(ctx context.Context, base string, sp spec.JobSpec) (*wireJob, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(sp.Canonical()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("submit: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var out struct {
		Jobs []*wireJob `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Jobs) != 1 {
		return nil, fmt.Errorf("submit: malformed response (%v)", err)
	}
	return out.Jobs[0], nil
}

// stream reads the job's NDJSON events up to the terminal status line.
func (c *wireClient) stream(ctx context.Context, base, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events: bad line: %w", err)
		}
		switch ev.Status {
		case "":
		case "done":
			return nil
		default:
			return fmt.Errorf("job %s %s: %s", id, ev.Status, ev.Error)
		}
	}
	return fmt.Errorf("events: stream ended without a terminal line (%v)", sc.Err())
}

func (c *wireClient) fetch(ctx context.Context, base, id string) (*wireJob, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch: status %d", resp.StatusCode)
	}
	var js wireJob
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	return &js, nil
}

// spanTransport records one client-side span per locd call, from the
// request until its body is drained or closed, with the status code and
// the body size. Without a tracer in the request context it adds nothing.
type spanTransport struct {
	next http.RoundTripper
}

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	_, span := obs.Start(req.Context(), callName(req))
	if span == nil {
		return t.next.RoundTrip(req)
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		return nil, err
	}
	span.SetAttr("status", resp.StatusCode)
	resp.Body = &spanBody{ReadCloser: resp.Body, span: span}
	return resp, nil
}

// callName names a locd call's span after the route it hits.
func callName(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && p == "/v1/jobs":
		return "locsrv.submit"
	case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/events"):
		return "locsrv.stream"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "locsrv.fetch"
	case p == "/v1/cache/ranges":
		return "locsrv.probe"
	case strings.HasPrefix(p, "/v1/cache/"):
		return "locsrv.cache_fetch"
	}
	return "locsrv.other"
}

// spanBody ends its span at the first of end-of-body and Close.
type spanBody struct {
	io.ReadCloser
	span *obs.Span
	n    atomic.Int64
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	if err == io.EOF {
		b.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (b *spanBody) end() {
	b.once.Do(func() {
		b.span.SetAttr("bytes", b.n.Load())
		b.span.End()
	})
}
