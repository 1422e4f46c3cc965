// Command locd is the long-lived localization-result service: an HTTP
// front-end over the same spec-driven campaign runner the CLIs use, served
// by internal/locsrv. Clients submit declarative job specs (spec.JobSpec)
// and poll — or stream — results over the wire; specs restricted to a
// trial sub-range execute partially, which is what the distributed
// coordinator (internal/engine/coord, cmd/locc) fans out across a fleet of
// locd workers.
//
// Endpoints (see internal/locsrv for the wire contract):
//
//	POST /v1/jobs             submit one spec or an array; returns job IDs
//	GET  /v1/jobs/{id}        job status, and the result once done
//	GET  /v1/jobs/{id}/events NDJSON stream of trial-progress events
//	GET  /v1/cache/{key}      raw result-cache entry by content address
//	POST /v1/cache/ranges     range-keyed cache probe for coordinator crash-resume
//	POST /v1/fleet/announce   fleet-membership announce/heartbeat/leave
//	GET  /v1/fleet            live fleet membership (the registry view)
//	GET  /metrics             Prometheus text exposition of all counters
//	GET  /healthz             liveness + queue depth, in-flight jobs, budget saturation
//
// Usage:
//
//	locd [-addr 127.0.0.1:8090] [-parallel W] [-suite-parallel C]
//	     [-cache DIR | -no-cache] [-cache-gc=off] [-debug-addr 127.0.0.1:6060]
//	     [-registry URL] [-advertise URL] [-announce-interval 3s]
//
// -debug-addr starts a second listener serving net/http/pprof under /debug/
// plus a /metrics alias, kept off the job-serving address so profiling
// endpoints are never exposed to job clients by accident.
//
// Every locd serves a fleet registry; -registry joins this worker to
// another locd's registry (or its own — a one-daemon registry bootstrap):
// it announces immediately, heartbeats every -announce-interval, and sends
// a leaving announce on shutdown. -advertise is the base URL peers should
// reach this worker at, defaulting to http://<addr>. Coordinators pointed
// at the registry with -discover pick the whole fleet up, including
// workers that join mid-run.
//
// Each submitted batch executes through run.ExecuteAll: up to
// -suite-parallel campaigns overlap (default 0 = GOMAXPROCS — this is a
// server), largest first, and every campaign draws shard slots from the
// process-wide engine.SharedBudget, so concurrent batches share the machine
// instead of oversubscribing it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/cache"
	"resilientloc/internal/engine/fleet"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/locsrv"
	"resilientloc/internal/obs"
)

func main() {
	// -h prints the flag list; that is a successful run, not an error.
	if err := realMain(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "locd:", err)
		os.Exit(1)
	}
}

func realMain(args []string) error {
	fs := flag.NewFlagSet("locd", flag.ContinueOnError)
	var opts run.Options
	// Only the environment flags the daemon consumes are registered: job
	// parameters (seed, trials, shard size) come from each submitted spec,
	// and there is no terminal to throttle repaints for.
	addr := fs.String("addr", "127.0.0.1:8090", "listen address")
	debugAddr := fs.String("debug-addr", "",
		"optional debug listen address serving net/http/pprof and /metrics (e.g. 127.0.0.1:6060)")
	fs.IntVar(&opts.Workers, "parallel", 0, "worker goroutines per campaign (0 = GOMAXPROCS)")
	fs.StringVar(&opts.CacheDir, "cache", "", "result cache directory (default: the per-user cache dir)")
	fs.BoolVar(&opts.NoCache, "no-cache", false, "disable the on-disk result cache")
	fs.StringVar(&opts.CacheGC, "cache-gc", "on", "opportunistic cache garbage collection (on|off)")
	fs.IntVar(&opts.SuiteParallel, "suite-parallel", 0,
		"campaigns to overlap per submitted batch (0 = GOMAXPROCS)")
	registry := fs.String("registry", "",
		"fleet registry base URL to announce this worker to (any locd serves one, including this one)")
	advertise := fs.String("advertise", "",
		"base URL peers should reach this worker at (default: http://<addr>)")
	announceEvery := fs.Duration("announce-interval", 0,
		"heartbeat interval for -registry announces (0 = the fleet default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv, err := locsrv.New(opts)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	announced := make(chan struct{})
	if *registry != "" {
		self := *advertise
		if self == "" {
			self = "http://" + *addr
		}
		ann := &fleet.Announcer{
			Registry: *registry,
			Self: fleet.Announce{
				URL:         self,
				Capacity:    engine.SharedBudget().Cap(),
				Fingerprint: cache.Fingerprint(),
			},
			Interval: *announceEvery,
			Warn: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "locd: "+format+"\n", args...)
			},
		}
		go func() {
			defer close(announced)
			fmt.Fprintf(os.Stderr, "locd: announcing %s to fleet registry %s\n", self, *registry)
			if err := ann.Run(ctx); err != nil {
				errc <- fmt.Errorf("fleet announcer: %w", err)
			}
		}()
	} else {
		close(announced)
	}
	if *debugAddr != "" {
		ds := &http.Server{Addr: *debugAddr, Handler: debugHandler()}
		go func() {
			fmt.Fprintf(os.Stderr, "locd: debug listening on %s (pprof, metrics)\n", *debugAddr)
			if err := ds.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("debug server: %w", err)
			}
		}()
		defer ds.Close()
	}
	go func() {
		fmt.Fprintf(os.Stderr, "locd: listening on %s (cache: %s)\n", *addr, orOff(srv.Session().CacheDir()))
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Let the announcer send its leaving announce so the registry drops
		// this worker immediately instead of waiting out the eviction window.
		select {
		case <-announced:
		case <-time.After(3 * time.Second):
		}
		// Unblock long-lived event streams first: Shutdown waits for open
		// connections, and an events subscriber on a running job would
		// otherwise hold the daemon until the timeout on every restart.
		srv.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(shutdownCtx)
	}
}

// debugHandler builds the -debug-addr mux: the standard pprof handlers,
// registered explicitly (importing net/http/pprof for its side effect would
// publish them on http.DefaultServeMux, which the job listener must never
// serve), plus a /metrics alias so one scrape target covers both listeners.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.Default().WritePrometheus(w)
	})
	return mux
}

func orOff(dir string) string {
	if dir == "" {
		return "off"
	}
	return dir
}
