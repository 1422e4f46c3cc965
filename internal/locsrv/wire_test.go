package locsrv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
)

// requireCompactJSON reads a response and checks it is one line of compact
// JSON (one object followed by a newline) served as application/json.
func requireCompactJSON(t *testing.T, route string, resp *http.Response, wantCode int) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Errorf("%s: status %d, want %d: %s", route, resp.StatusCode, wantCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", route, ct)
	}
	line, ok := bytes.CutSuffix(body, []byte("\n"))
	if !ok || bytes.ContainsAny(line, "\r\n") || len(line) == 0 || line[0] != '{' {
		t.Fatalf("%s: body is not one JSON object on one line: %q", route, body)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, line); err != nil {
		t.Fatalf("%s: body is not JSON: %v", route, err)
	}
	if !bytes.Equal(compact.Bytes(), line) {
		t.Errorf("%s: body is not compact JSON:\n got %s\nwant %s", route, line, compact.Bytes())
	}
}

// TestWireResponsesAreCompactJSON: every JSON route answers one line of
// compact JSON, and every events line is one JSON object.
func TestWireResponsesAreCompactJSON(t *testing.T) {
	_, hs := newTestServer(t, run.Options{})
	body := `{"kind":"scenario","id":"multilat-town","seed":3,"trials":2}`

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	id := submit(t, hs, body)[0].ID
	if v := poll(t, hs, id); v.Status != "done" {
		t.Fatalf("job ended %q: %s", v.Status, v.Error)
	}
	requireCompactJSON(t, "POST /v1/jobs", post("/v1/jobs", body), http.StatusAccepted)
	requireCompactJSON(t, "GET /v1/jobs/{id}", get("/v1/jobs/"+id), http.StatusOK)
	requireCompactJSON(t, "GET /healthz", get("/healthz"), http.StatusOK)
	requireCompactJSON(t, "POST /v1/cache/ranges", post("/v1/cache/ranges", body), http.StatusOK)
	requireCompactJSON(t, "POST /v1/jobs (400)", post("/v1/jobs", `{not json`), http.StatusBadRequest)

	resp := get("/v1/jobs/" + id + "/events")
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		lines++
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Errorf("events line %d is not one JSON object: %q: %v", lines, sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 2 {
		t.Errorf("events stream of a finished job has %d lines, want the snapshot and the terminal line", lines)
	}
}

// TestSubmitTimeHitElapsedAgrees: a hit served at submit time reports one
// elapsed time, the same in its job summary and in its result's report.
func TestSubmitTimeHitElapsedAgrees(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	body := `{"kind":"scenario","id":"multilat-town","seed":23,"trials":2}`
	primeCache(t, dir, body)

	_, hs := newTestServer(t, run.Options{CacheDir: dir})
	js := submit(t, hs, body)[0]
	if js.Status != "done" || !js.Cached {
		t.Fatalf("POST summary %+v, want a done, cached job", js)
	}
	v := poll(t, hs, js.ID)
	if v.Result == nil || v.Result.Report == nil {
		t.Fatalf("cached job carries no report: %+v", v)
	}
	if got, want := v.Result.Report.ElapsedSeconds, v.ElapsedSeconds; got != want || want <= 0 {
		t.Errorf("result.report.elapsed_seconds = %v, job elapsed_seconds = %v: want one positive reading", got, want)
	}
}

// BenchmarkSubmitHit times the wire layer's hit path: one op is a POST of a
// spec whose result a fresh server finds in its cache, answered within the
// POST, plus the GET that fetches the result. Every op in one server's
// lifetime submits a distinct spec, so each is a disk hit, never the job
// table's memory; the pool of primed specs is cycled through fresh servers.
func BenchmarkSubmitHit(b *testing.B) {
	const pool = 64
	n := min(b.N, pool)
	dir := filepath.Join(b.TempDir(), "cache")
	bodies := make([]string, n)
	jobs := make([]spec.Resolved, n)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"kind":"scenario","id":"mobility-waypoint","seed":%d,"trials":2}`, i+1)
		specs, err := spec.Decode(strings.NewReader(bodies[i]))
		if err != nil {
			b.Fatal(err)
		}
		if jobs[i], err = spec.Resolve(specs[0]); err != nil {
			b.Fatal(err)
		}
	}
	prime, err := run.NewSession(run.Options{CacheDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range run.ExecuteAll(prime, jobs, nil) {
		if o.Err != nil {
			b.Fatal(o.Err)
		}
	}

	var hs *httptest.Server
	b.Cleanup(func() {
		if hs != nil {
			hs.Close()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			b.StopTimer()
			if hs != nil {
				hs.Close()
			}
			srv, err := New(run.Options{CacheDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			hs = httptest.NewServer(srv.Handler())
			b.StartTimer()
		}
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(bodies[i%n]))
		if err != nil {
			b.Fatal(err)
		}
		var out struct {
			Jobs []jobSummary `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || len(out.Jobs) != 1 || !out.Jobs[0].Cached {
			b.Fatalf("POST answered %+v (%v), want one cached job", out.Jobs, err)
		}
		resp, err = http.Get(hs.URL + out.Jobs[0].URL)
		if err != nil {
			b.Fatal(err)
		}
		var v jobSummary
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || v.Result == nil {
			b.Fatalf("GET answered %+v (%v), want the result", v, err)
		}
	}
}
