package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"deadmembers/internal/engine"
)

// TestConcurrentIdenticalRequestsCompileOnce is the load-test acceptance
// criterion: 64 concurrent identical /v1/analyze requests must trigger
// exactly one underlying frontend compile — the first is the cache miss,
// singleflight folds the concurrent rest onto it — with identical bodies
// and cache-hit metrics for the other 63.
func TestConcurrentIdenticalRequestsCompileOnce(t *testing.T) {
	const n = 64
	s, ts := newTestServer(t, Config{MaxInflight: n, MaxQueue: n})

	start := make(chan struct{})
	bodies := make([]string, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/analyze?file=sample.mcc", "text/x-mcc", strings.NewReader(sample))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			bodies[i], codes[i] = string(b), resp.StatusCode
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body: %s", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d body diverges from request 0", i)
		}
	}
	st := s.Session().Stats()
	if st.Compiles != 1 {
		t.Errorf("Compiles = %d, want exactly 1 for %d identical requests", st.Compiles, n)
	}
	if st.Hits != n-1 {
		t.Errorf("Hits = %d, want %d", st.Hits, n-1)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	metricsBody := string(b)
	for _, want := range []string{
		"deadmemd_cache_compiles_total 1",
		fmt.Sprintf("deadmemd_cache_hits_total %d", n-1),
		fmt.Sprintf(`deadmemd_requests_total{endpoint="/v1/analyze",code="200"} %d`, n),
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsBody)
		}
	}
}

// TestAdmissionControlRejects is the saturation acceptance criterion:
// with -max-inflight 1 and -max-queue 2, a third of a kind of concurrent
// request is shed with 429 + Retry-After while the slot is held.
func TestAdmissionControlRejects(t *testing.T) {
	gate := make(chan struct{})
	s, err := New(Config{MaxInflight: 1, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a session whose compiles block on the gate, holding the
	// execution slot so the queue fills deterministically.
	s.sess = engine.NewBoundedSession(engine.Config{
		ParseFault: func(string) { <-gate },
	}, engine.Limits{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	source := func(i int) string {
		return fmt.Sprintf("int main() { return %d; }", i)
	}
	type result struct {
		code int
		body string
	}
	results := make(chan result, 8)
	fire := func(i int) {
		resp, err := http.Post(ts.URL+fmt.Sprintf("/v1/analyze?file=p%d.mcc", i), "text/x-mcc", strings.NewReader(source(i)))
		if err != nil {
			t.Errorf("request %d: %v", i, err)
			results <- result{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		results <- result{resp.StatusCode, string(b)}
	}

	// One request holds the slot, two wait in the queue...
	for i := 0; i < 3; i++ {
		go fire(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.inflight() != 1 || s.adm.queueLen() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("saturation never reached: inflight=%d queued=%d", s.adm.inflight(), s.adm.queueLen())
		}
		time.Sleep(time.Millisecond)
	}

	// ...so the next one must be rejected immediately.
	resp, err := http.Post(ts.URL+"/v1/analyze?file=p3.mcc", "text/x-mcc", strings.NewReader(source(3)))
	if err != nil {
		t.Fatal(err)
	}
	rejBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429 (body: %s)", resp.StatusCode, rejBody)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}

	// Release the gate: the admitted three finish normally.
	close(gate)
	for i := 0; i < 3; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Errorf("admitted request: status %d, body: %s", r.code, r.body)
		}
	}

	if s.met.rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", s.met.rejected)
	}
}
