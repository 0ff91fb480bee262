// Command deadmemd serves the dead-data-member analysis over HTTP: a
// long-running daemon in front of the staged engine, with a bounded
// compile-once session cache, admission control, per-request deadlines,
// and Prometheus metrics (see internal/server).
//
// Usage:
//
//	deadmemd [flags]
//
// Endpoints: POST /v1/analyze, /v1/lint, /v1/strip; GET /healthz,
// /readyz, /metrics. Responses are byte-identical to the stdout of
// deadmem, deadlint, and deadstrip for the same inputs and options.
//
// On SIGTERM or SIGINT the daemon drains gracefully: /readyz flips to
// 503, new analysis requests are refused, and in-flight requests are
// given -drain-timeout to finish.
//
// With -persist-dir set, rendered responses are also stored on disk and
// served after a restart without recompiling (see internal/persist).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"deadmembers/internal/buildinfo"
	"deadmembers/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "deadmemd: internal error: %v\n", r)
			code = 1
		}
	}()
	fs := flag.NewFlagSet("deadmemd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr            = fs.String("addr", "127.0.0.1:8100", "listen address")
		cacheMaxBytes   = fs.Int64("cache-max-bytes", 256<<20, "session cache bound on the heap its compilations retain, as estimated at compile time (negative = unbounded)")
		cacheMaxEntries = fs.Int("cache-max-entries", 128, "session cache bound on entry count (negative = unbounded)")
		maxInflight     = fs.Int("max-inflight", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
		maxQueue        = fs.Int("max-queue", 64, "max requests waiting for a slot before 429s (negative = no queue)")
		requestTimeout  = fs.Duration("request-timeout", 60*time.Second, "per-request analysis deadline (negative = none)")
		maxRequestBytes = fs.Int64("max-request-bytes", 64<<20, "request body size limit")
		drainTimeout    = fs.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
		lameDuck        = fs.Duration("lame-duck", 0, "window after SIGTERM during which the listener stays up but refuses new work with 503 (0 = close immediately)")
		persistDir      = fs.String("persist-dir", "", "directory for the on-disk artifact store (empty = persistence off)")
		persistMaxBytes = fs.Int64("persist-max-bytes", 1<<30, "on-disk artifact store bound; least-recently-used records are evicted past it")
		showVersion     = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, buildinfo.Line("deadmemd"))
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: deadmemd [flags]")
		fs.PrintDefaults()
		return 2
	}

	srv, err := server.New(server.Config{
		CacheMaxBytes:   *cacheMaxBytes,
		CacheMaxEntries: *cacheMaxEntries,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		RequestTimeout:  *requestTimeout,
		MaxRequestBytes: *maxRequestBytes,
		PersistDir:      *persistDir,
		PersistMaxBytes: *persistMaxBytes,
	})
	if err != nil {
		fmt.Fprintf(stderr, "deadmemd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "deadmemd: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "deadmemd: listening on http://%s\n", ln.Addr())

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "deadmemd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop advertising readiness, refuse new analysis
	// work, and give in-flight requests the grace period to finish. The
	// lame-duck window keeps the listener up (returning 503s) long enough
	// for load balancers to observe the failed readiness probe before
	// connections start being refused outright.
	fmt.Fprintf(stderr, "deadmemd: draining (lame-duck %v, grace %v)\n", *lameDuck, *drainTimeout)
	srv.StartDrain()
	if *lameDuck > 0 {
		time.Sleep(*lameDuck)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "deadmemd: drain incomplete: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "deadmemd: stopped")
	return 0
}
