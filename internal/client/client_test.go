package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deadmembers/internal/api"
)

// fakeClock makes the retry loop and breaker fully deterministic: Sleep
// records the requested delay and advances virtual time instantly.
type fakeClock struct {
	mu    sync.Mutex
	t     time.Time
	slept []time.Duration
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Now()} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	f.slept = append(f.slept, d)
	f.t = f.t.Add(d)
	f.mu.Unlock()
	return nil
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func (f *fakeClock) Slept() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.slept...)
}

// newTestClient pins the jitter to its ceiling (rand = 1) and installs a
// fake clock into the retry loop; the breaker reads the client's clock,
// so the fake clock drives it too.
func newTestClient(t *testing.T, cfg Config) (*Client, *fakeClock) {
	t.Helper()
	if cfg.Rand == nil {
		cfg.Rand = func() float64 { return 1 }
	}
	c := New(cfg)
	clk := newFakeClock()
	c.clk = clk
	return c, clk
}

func req() *api.Request {
	return &api.Request{Sources: []api.Source{{Name: "a.mcc", Text: "int main() { return 0; }\n"}}}
}

func TestRetriesTransientFailuresThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("report"))
	}))
	defer ts.Close()

	c, clk := newTestClient(t, Config{BaseURL: ts.URL, BaseBackoff: 100 * time.Millisecond})
	res, err := c.Analyze(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "report" || res.Degraded {
		t.Fatalf("res = %q degraded=%v", res.Body, res.Degraded)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", calls.Load())
	}
	// Exponential ceilings with rand pinned to 1: 100ms then 200ms.
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	got := clk.Slept()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("slept %v, want %v", got, want)
	}
}

func TestHonorsRetryAfterSeconds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	c, clk := newTestClient(t, Config{BaseURL: ts.URL, BaseBackoff: time.Millisecond})
	if _, err := c.Lint(context.Background(), req()); err != nil {
		t.Fatal(err)
	}
	got := clk.Slept()
	if len(got) != 1 || got[0] != 3*time.Second {
		t.Errorf("slept %v, want exactly the Retry-After hint [3s]", got)
	}
}

func TestHonorsRetryAfterHTTPDate(t *testing.T) {
	clkProbe := newFakeClock()
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", clkProbe.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	c, clk := newTestClient(t, Config{BaseURL: ts.URL, BaseBackoff: time.Millisecond})
	clk.mu.Lock()
	clk.t = clkProbe.Now()
	clk.mu.Unlock()
	if _, err := c.Analyze(context.Background(), req()); err != nil {
		t.Fatal(err)
	}
	got := clk.Slept()
	// HTTP dates have second granularity; accept 1–2s.
	if len(got) != 1 || got[0] < time.Second || got[0] > 2*time.Second {
		t.Errorf("slept %v, want ~2s from the HTTP-date hint", got)
	}
}

func TestPermanentErrorsDoNotRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "compile: a.mcc:1: syntax error", http.StatusUnprocessableEntity)
	}))
	defer ts.Close()

	c, _ := newTestClient(t, Config{BaseURL: ts.URL})
	_, err := c.Analyze(context.Background(), req())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want 422 APIError", err)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (no retries on 4xx)", calls.Load())
	}
}

func TestDeadlineStopsRetriesBeforeOversleeping(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	c, clk := newTestClient(t, Config{BaseURL: ts.URL, BaseBackoff: time.Second})
	ctx, cancel := context.WithDeadline(context.Background(), clk.Now().Add(500*time.Millisecond))
	defer cancel()
	_, err := c.Analyze(ctx, req())
	if err == nil || !strings.Contains(err.Error(), "deadline would expire") {
		t.Fatalf("err = %v, want deadline-would-expire", err)
	}
	if len(clk.Slept()) != 0 {
		t.Errorf("slept %v past the deadline", clk.Slept())
	}
}

func TestRetriesDroppedConnections(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			hj, _ := w.(http.Hijacker)
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	c, _ := newTestClient(t, Config{BaseURL: ts.URL, BaseBackoff: time.Millisecond})
	res, err := c.Strip(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "ok" {
		t.Errorf("body = %q", res.Body)
	}
}

func TestDegradedHeaderSurfaced(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.DegradedHeader, "true")
		w.Write([]byte("partial"))
	}))
	defer ts.Close()
	c, _ := newTestClient(t, Config{BaseURL: ts.URL})
	res, err := c.Analyze(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("degraded marker lost")
	}
}

func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	healthy := atomic.Bool{}
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if healthy.Load() {
			w.Write([]byte("ok"))
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	c, clk := newTestClient(t, Config{
		BaseURL:          ts.URL,
		MaxAttempts:      3,
		BaseBackoff:      time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Second,
	})

	// Sustained 5xx: the first call's three attempts trip the breaker.
	if _, err := c.Analyze(context.Background(), req()); err == nil {
		t.Fatal("want error from failing server")
	}
	wire := calls.Load()

	// While open: fail fast, zero network traffic.
	_, err := c.Analyze(context.Background(), req())
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if calls.Load() != wire {
		t.Fatalf("open circuit still hit the network (%d → %d calls)", wire, calls.Load())
	}

	// Cooldown elapses; the server has recovered; the half-open probe
	// succeeds and closes the circuit.
	healthy.Store(true)
	clk.Advance(11 * time.Second)
	res, err := c.Analyze(context.Background(), req())
	if err != nil {
		t.Fatalf("post-cooldown probe: %v", err)
	}
	if string(res.Body) != "ok" {
		t.Errorf("body = %q", res.Body)
	}
	// Closed again: the next call flows normally.
	if _, err := c.Analyze(context.Background(), req()); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestFailedHalfOpenProbeReopens(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(2, 5*time.Second, clk.Now)
	b.failure()
	b.failure()
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after threshold: allow = %v, want open", err)
	}
	clk.Advance(6 * time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	// Only one concurrent probe.
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second concurrent probe allowed")
	}
	b.failure() // probe failed → re-open, cooldown restarts
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("re-opened circuit allowed traffic: %v", err)
	}
	clk.Advance(6 * time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("second probe window refused: %v", err)
	}
	b.success()
	if err := b.allow(); err != nil {
		t.Fatalf("closed circuit refused: %v", err)
	}
}

func Test429DoesNotTripBreaker(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	// Threshold 1: a single breaker failure would open the circuit, so
	// success proves 429s are treated as backpressure, not failure.
	c, _ := newTestClient(t, Config{BaseURL: ts.URL, BaseBackoff: time.Millisecond, BreakerThreshold: 1})
	if _, err := c.Analyze(context.Background(), req()); err != nil {
		t.Fatalf("429s tripped the breaker: %v", err)
	}
}

// TestHalfOpenConcurrentProbes pins the half-open contract under
// contention: when the cooldown elapses, exactly one of N concurrent
// callers wins the trial slot; the losers fail fast with ErrCircuitOpen
// and must not reset or re-open the breaker underneath the winner.
func TestHalfOpenConcurrentProbes(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(2, 5*time.Second, clk.Now)
	b.failure()
	b.failure()
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker did not open: %v", err)
	}
	clk.Advance(6 * time.Second)

	const probes = 32
	var (
		winners atomic.Int32
		start   = make(chan struct{})
		wg      sync.WaitGroup
	)
	for i := 0; i < probes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := b.allow(); err == nil {
				winners.Add(1)
			} else if !errors.Is(err, ErrCircuitOpen) {
				t.Errorf("loser got %v, want ErrCircuitOpen", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if winners.Load() != 1 {
		t.Fatalf("%d concurrent probes won the half-open slot, want exactly 1", winners.Load())
	}

	// The losers' rejections changed nothing: the winner still owns the
	// trial, and its verdict alone decides the breaker's fate.
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second trial allowed while the first is outstanding: %v", err)
	}
	b.failure() // winner's probe fails → re-open, cooldown restarts
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("failed probe did not re-open the circuit")
	}
	clk.Advance(6 * time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("next probe window refused: %v", err)
	}
	b.success()
	if err := b.allow(); err != nil {
		t.Fatalf("closed circuit refused traffic: %v", err)
	}
}

// TestGiveUpWrapsTransientError: when retries exhaust, the final error
// must carry the origin's status and Retry-After so a proxy can
// propagate them instead of inventing its own.
func TestGiveUpWrapsTransientError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c, _ := newTestClient(t, Config{BaseURL: ts.URL, MaxAttempts: 2, BaseBackoff: time.Millisecond})
	_, err := c.Analyze(context.Background(), req())
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want wrapped TransientError", err)
	}
	if te.Status != http.StatusTooManyRequests || te.RetryAfter != 7*time.Second {
		t.Errorf("TransientError = %+v, want status 429 retry-after 7s", te)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Now()
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"5", 5 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"garbage", 0},
		{now.Add(90 * time.Second).UTC().Format(http.TimeFormat), 89 * time.Second}, // date precision
	} {
		got := parseRetryAfter(tc.in, now)
		if tc.in != "" && strings.Contains(tc.in, "GMT") {
			if got < tc.want || got > tc.want+2*time.Second {
				t.Errorf("parseRetryAfter(%q) = %v, want ~%v", tc.in, got, tc.want)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
