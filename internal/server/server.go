// Package server implements deadmemd: a long-running HTTP/JSON service
// over the staged analysis engine. It is a transport, not a fork, of the
// batch pipeline — every endpoint renders through the same writers the
// CLIs use (internal/textreport, internal/lint, internal/strip), so the
// response body for a given input is byte-identical to the corresponding
// command's stdout.
//
// Endpoints:
//
//	POST /v1/analyze   dead-member report      (deadmem)
//	POST /v1/lint      findings, text/JSON/SARIF (deadlint)
//	POST /v1/strip     stripped sources        (deadstrip)
//	GET  /healthz      liveness probe
//	GET  /readyz       readiness probe (503 while draining)
//	GET  /metrics      Prometheus text exposition
//
// Production concerns are handled here rather than in handlers: a shared
// bounded engine.Session (LRU, byte-accounted, singleflight), a
// semaphore-based admission controller with a bounded wait queue (429 +
// Retry-After beyond it), per-request deadlines threaded into the
// engine's cancellation points, request body size limits, and panic
// containment per request.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"deadmembers/internal/engine"
	"deadmembers/internal/lint"
	"deadmembers/internal/persist"
	"deadmembers/internal/strip"
	"deadmembers/internal/textreport"
)

// statusClientClosedRequest mirrors nginx's nonstandard 499: the client
// went away before a response could be produced.
const statusClientClosedRequest = 499

// degradedHeader is set to "true" on responses rendered from a run in
// which a pipeline stage panicked and was contained.
const degradedHeader = "X-Deadmemd-Degraded"

// Config sizes the server. Zero fields take the documented defaults;
// pass a negative value to disable an optional bound.
type Config struct {
	// CacheMaxBytes bounds the heap the session cache retains, each
	// entry charged its engine.Compilation.RetainedBytes estimate
	// (default 256 MiB; negative = unbounded).
	CacheMaxBytes int64
	// CacheMaxEntries bounds the session cache entry count (default 128;
	// negative = unbounded).
	CacheMaxEntries int

	// MaxInflight bounds concurrently executing requests (default
	// GOMAXPROCS).
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot; beyond it
	// requests are rejected with 429 (default 64; negative = no queue).
	MaxQueue int

	// RequestTimeout is the per-request deadline threaded into the
	// engine's compile/analyze/lint cancellation points (default 60s;
	// negative = none).
	RequestTimeout time.Duration

	// MaxRequestBytes caps the request body (default 64 MiB). Individual
	// files are additionally subject to source.MaxFileSize inside the
	// frontend.
	MaxRequestBytes int64

	// PersistDir, when non-empty, enables the crash-safe artifact tier:
	// rendered responses are stored on disk, content-addressed by
	// (endpoint, options, compilation fingerprint), and served without
	// recompiling — including by a restarted process (internal/persist).
	PersistDir string
	// PersistMaxBytes bounds the on-disk artifact bytes, LRU-evicted
	// (default 1 GiB; negative = unbounded).
	PersistMaxBytes int64

	// persistFS replaces the artifact store's filesystem. It is a test
	// seam, not an option: the chaos soak passes a fault-injecting FS.
	persistFS persist.FS
}

func (c Config) withDefaults() Config {
	if c.CacheMaxBytes == 0 {
		c.CacheMaxBytes = 256 << 20
	}
	if c.CacheMaxEntries == 0 {
		c.CacheMaxEntries = 128
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 64 << 20
	}
	if c.PersistMaxBytes == 0 {
		c.PersistMaxBytes = 1 << 30
	}
	return c
}

// Server is the deadmemd service: one shared engine session behind an
// admission-controlled HTTP API, optionally backed by a crash-safe
// on-disk artifact store.
type Server struct {
	cfg      Config
	sess     *engine.Session
	adm      *admission
	met      *metrics
	store    *persist.Store // nil = persistence disabled
	draining atomic.Bool
	mux      *http.ServeMux
}

// New builds a Server from cfg (see Config for defaults). It fails only
// when the configured persist directory cannot be initialized.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	limits := engine.Limits{}
	if cfg.CacheMaxBytes > 0 {
		limits.MaxBytes = cfg.CacheMaxBytes
	}
	if cfg.CacheMaxEntries > 0 {
		limits.MaxEntries = cfg.CacheMaxEntries
	}
	maxQueue := cfg.MaxQueue
	if maxQueue < 0 {
		maxQueue = 0
	}
	s := &Server{
		cfg:  cfg,
		sess: engine.NewSession(engine.Config{}, limits),
		adm:  newAdmission(cfg.MaxInflight, maxQueue),
		met:  newMetrics(),
		mux:  http.NewServeMux(),
	}
	if cfg.PersistDir != "" {
		popts := persist.Options{FS: cfg.persistFS}
		if cfg.PersistMaxBytes > 0 {
			popts.MaxBytes = cfg.PersistMaxBytes
		}
		store, err := persist.Open(cfg.PersistDir, popts)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.Handle("/v1/analyze", s.endpoint("/v1/analyze", s.analyze))
	s.mux.Handle("/v1/lint", s.endpoint("/v1/lint", s.lint))
	s.mux.Handle("/v1/strip", s.endpoint("/v1/strip", s.strip))
	return s, nil
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDrain flips /readyz to 503 and makes analysis endpoints refuse new
// work, so load balancers stop routing here while in-flight requests
// finish (pair with http.Server.Shutdown).
func (s *Server) StartDrain() { s.draining.Store(true) }

// Session exposes the shared engine session (used by tests and the CLI's
// startup logging).
func (s *Server) Session() *engine.Session { return s.sess }

// handlerResult is a fully buffered successful response; buffering keeps
// status codes truthful (nothing is written before the pipeline finishes).
type handlerResult struct {
	body        []byte
	contentType string
	degraded    bool
}

// endpoint wraps an analysis handler with the shared transport concerns:
// method check, drain check, body limit, decoding, admission, deadline,
// panic containment, and metrics.
func (s *Server) endpoint(name string, fn func(ctx context.Context, b *bundle) (*handlerResult, *httpError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := http.StatusOK
		defer func() { s.met.observe(name, code, time.Since(start)) }()
		fail := func(herr *httpError) {
			code = herr.code
			http.Error(w, "deadmemd: "+herr.msg, herr.code)
		}

		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			fail(&httpError{http.StatusMethodNotAllowed, "use POST"})
			return
		}
		if s.draining.Load() {
			fail(&httpError{http.StatusServiceUnavailable, "draining"})
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
		b, herr := parseRequest(r)
		if herr != nil {
			fail(herr)
			return
		}

		// Persistent artifact tier: a validated on-disk record is the
		// exact bytes a full pipeline run would render, so it is served
		// before admission — disk hits must not queue behind compiles.
		// A corrupt record is quarantined inside Get and falls through
		// to a fresh compile; corrupt bytes are never served.
		var key string
		if s.store != nil {
			key = artifactKey(name, b)
			if body, contentType, ok := s.store.Get(key); ok {
				w.Header().Set("Content-Type", contentType)
				w.Header().Set("X-Deadmemd-Cache", "persist")
				w.Write(body)
				return
			}
		}

		if err := s.adm.acquire(r.Context()); err != nil {
			if errors.Is(err, errBusy) {
				s.met.markRejected()
				w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
				fail(&httpError{http.StatusTooManyRequests, err.Error()})
			} else {
				fail(&httpError{statusClientClosedRequest, "client closed request"})
			}
			return
		}
		defer s.adm.release()
		// Only time spent holding a slot feeds the Retry-After estimate:
		// instant 429s, persist hits and rejected bodies would pull it
		// down exactly when the server is saturated, and queue wait is
		// already counted by its backlog factor.
		held := time.Now()
		defer func() { s.met.sampleService(time.Since(held)) }()

		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}

		var res *handlerResult
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					res, herr = nil, &httpError{http.StatusInternalServerError,
						fmt.Sprintf("internal error: %v", rec)}
				}
			}()
			res, herr = fn(ctx, b)
		}()
		if herr != nil {
			fail(herr)
			return
		}
		if res.degraded {
			s.met.markDegraded()
			w.Header().Set(degradedHeader, "true")
		} else if key != "" {
			// Persist only full-fidelity artifacts, best-effort: a
			// failed write costs a future recompile, nothing else.
			s.store.Put(key, res.contentType, res.body)
		}
		w.Header().Set("Content-Type", res.contentType)
		w.Write(res.body)
	}
}

// retryAfterSeconds is the hint sent with 429 responses. It adapts to
// the backlog: the queue depth (plus the rejected request itself) times
// the recent average service time, divided across the execution slots —
// roughly when a retry will find a free slot — clamped to [1s, 60s].
func (s *Server) retryAfterSeconds() int {
	avg := s.met.avgServiceSeconds()
	if avg <= 0 {
		return 1 // no samples yet; the old fixed hint
	}
	wait := avg * float64(s.adm.queueLen()+1) / float64(s.cfg.MaxInflight)
	sec := int(math.Ceil(wait))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// ctxErr maps a pipeline cancellation onto the transport: deadline → 504,
// client disconnect → 499.
func ctxErr(err error) *httpError {
	if errors.Is(err, context.DeadlineExceeded) {
		return &httpError{http.StatusGatewayTimeout, "analysis deadline exceeded"}
	}
	if errors.Is(err, context.Canceled) {
		return &httpError{statusClientClosedRequest, "client closed request"}
	}
	return &httpError{http.StatusInternalServerError, err.Error()}
}

// compile runs the bundle through the shared session cache.
func (s *Server) compile(ctx context.Context, b *bundle) (*engine.Compilation, *httpError) {
	comp := s.sess.CompileContext(ctx, b.sources...)
	if err := comp.Err(); err != nil {
		if comp.CancelErr() != nil {
			return nil, ctxErr(err)
		}
		return nil, &httpError{http.StatusUnprocessableEntity, "compile: " + err.Error()}
	}
	return comp, nil
}

// analyze serves POST /v1/analyze: the deadmem report.
func (s *Server) analyze(ctx context.Context, b *bundle) (*handlerResult, *httpError) {
	comp, herr := s.compile(ctx, b)
	if herr != nil {
		return nil, herr
	}
	res, _, err := comp.AnalyzeContext(ctx, b.opts)
	if err != nil {
		return nil, ctxErr(err)
	}
	degraded := comp.Degraded() || res.Degraded()
	var buf bytes.Buffer
	if err := textreport.Write(&buf, res, textreport.Options{
		Verbose:     b.verbose,
		PerClass:    b.classes,
		Unreachable: b.unreachable,
		Degraded:    degraded,
	}); err != nil {
		return nil, &httpError{http.StatusInternalServerError, err.Error()}
	}
	return &handlerResult{buf.Bytes(), "text/plain; charset=utf-8", degraded}, nil
}

// lint serves POST /v1/lint: deadlint findings in the requested format.
func (s *Server) lint(ctx context.Context, b *bundle) (*handlerResult, *httpError) {
	comp, herr := s.compile(ctx, b)
	if herr != nil {
		return nil, herr
	}
	res, _, err := comp.LintContext(ctx, b.opts, lint.Options{Budget: b.budget, Precision: b.precision})
	if err != nil {
		return nil, ctxErr(err)
	}
	var buf bytes.Buffer
	contentType := "text/plain; charset=utf-8"
	switch b.format {
	case "json":
		err = lint.WriteJSON(&buf, res)
		contentType = "application/json"
	case "sarif":
		err = lint.WriteSARIF(&buf, res)
		contentType = "application/json"
	default:
		err = lint.WriteText(&buf, res)
	}
	if err != nil {
		return nil, &httpError{http.StatusInternalServerError, err.Error()}
	}
	return &handlerResult{buf.Bytes(), contentType, comp.Degraded() || res.Degraded()}, nil
}

// strip serves POST /v1/strip: the transformed sources.
func (s *Server) strip(ctx context.Context, b *bundle) (*handlerResult, *httpError) {
	comp, herr := s.compile(ctx, b)
	if herr != nil {
		return nil, herr
	}
	if comp.Degraded() {
		// Mirrors deadstrip: never emit a transform derived from salvaged
		// results — a degraded analysis could misclassify members.
		s.met.markDegraded()
		return nil, &httpError{http.StatusUnprocessableEntity,
			"refusing to strip from a degraded compilation"}
	}
	out, err := comp.StripContext(ctx, b.opts, strip.Options{KeepUnreachable: b.keepUnreachable})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctxErr(ctx.Err())
		}
		return nil, &httpError{http.StatusInternalServerError, err.Error()}
	}
	var buf bytes.Buffer
	if err := strip.WriteSources(&buf, out.Sources); err != nil {
		return nil, &httpError{http.StatusInternalServerError, err.Error()}
	}
	return &handlerResult{buf.Bytes(), "text/plain; charset=utf-8", false}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.sess.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g := gauges{
		CacheHits:      st.Hits,
		CacheCompiles:  st.Compiles,
		CacheEvictions: st.Evictions,
		CacheEntries:   st.Entries,
		CacheBytes:     st.Bytes,
		Inflight:       s.adm.inflight(),
		Queued:         s.adm.queueLen(),
	}
	if s.store != nil {
		pst := s.store.Stats()
		g.Persist = &pst
	}
	s.met.writePrometheus(w, g)
}

// Store exposes the persistent artifact store (nil when disabled); used
// by tests and the warm-restart smoke.
func (s *Server) Store() *persist.Store { return s.store }
