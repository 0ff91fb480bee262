package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deadmembers/internal/engine"
)

// TestWarmRestartServesFromDisk is the warm-restart acceptance criterion:
// a response persisted by one server process is served byte-identically
// by a fresh process over the same directory — persist-hit metric
// increments, zero frontend compiles.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newTestServer(t, Config{PersistDir: dir})
	resp1, body1 := post(t, ts1.URL+"/v1/analyze?file=sample.mcc", "text/x-mcc", sample)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d, body: %s", resp1.StatusCode, body1)
	}
	if st := s1.Store().Stats(); st.Writes != 1 || st.Misses != 1 {
		t.Fatalf("first run persist stats = %+v, want 1 miss + 1 write", st)
	}
	ts1.Close() // process one "dies"; the record is already fsynced

	s2, ts2 := newTestServer(t, Config{PersistDir: dir})
	resp2, body2 := post(t, ts2.URL+"/v1/analyze?file=sample.mcc", "text/x-mcc", sample)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restarted run: status %d, body: %s", resp2.StatusCode, body2)
	}
	if body2 != body1 {
		t.Errorf("restarted body diverges:\n--- before ---\n%s--- after ---\n%s", body1, body2)
	}
	if got := resp2.Header.Get("X-Deadmemd-Cache"); got != "persist" {
		t.Errorf("X-Deadmemd-Cache = %q, want \"persist\"", got)
	}
	if st := s2.Session().Stats(); st.Compiles != 0 {
		t.Errorf("restarted server compiled %d times; the artifact store should have absorbed the request", st.Compiles)
	}
	if st := s2.Store().Stats(); st.Hits != 1 {
		t.Errorf("restarted persist stats = %+v, want exactly 1 hit", st)
	}

	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	b, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"deadmemd_persist_hits_total 1",
		"deadmemd_cache_compiles_total 0",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics missing %q:\n%s", want, b)
		}
	}
}

// TestDegradedResponsesNotPersisted: a panic-salvaged response carries
// the degraded marker and must never enter the artifact store — a
// restart should recompute it at full fidelity, not replay the salvage.
func TestDegradedResponsesNotPersisted(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{PersistDir: dir})
	s.sess = engine.NewBoundedSession(engine.Config{
		ParseFault: func(string) { panic("injected parse fault") },
	}, engine.Limits{})

	resp, body := post(t, ts.URL+"/v1/analyze?file=sample.mcc", "text/x-mcc", sample)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Deadmemd-Degraded") != "true" {
		t.Fatal("response not marked degraded; test lost its premise")
	}
	if st := s.Store().Stats(); st.Writes != 0 || st.Entries != 0 {
		t.Errorf("degraded artifact persisted: %+v", st)
	}
}

// TestRetryAfterAdapts: the hint tracks the recent average service time
// scaled by the backlog, clamped to [1s, 60s].
func TestRetryAfterAdapts(t *testing.T) {
	s, err := New(Config{MaxInflight: 2, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("no samples: retryAfterSeconds = %d, want fallback 1", got)
	}

	prime := func(secs float64) {
		s.met.mu.Lock()
		s.met.ewmaSecs, s.met.ewmaInit = secs, true
		s.met.mu.Unlock()
	}
	prime(10) // empty queue: 10s * (0+1)/2 slots = 5s
	if got := s.retryAfterSeconds(); got != 5 {
		t.Errorf("retryAfterSeconds = %d, want 5", got)
	}
	prime(1e6)
	if got := s.retryAfterSeconds(); got != 60 {
		t.Errorf("retryAfterSeconds = %d, want clamp 60", got)
	}
	prime(0.001)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("retryAfterSeconds = %d, want floor 1", got)
	}
}

// TestRetryAfterHoldsUnderOverload: a request shed with 429 never held a
// slot, so it must not pull the service-time average, and with it the
// hint, down while the server is saturated.
func TestRetryAfterHoldsUnderOverload(t *testing.T) {
	gate := make(chan struct{})
	s, err := New(Config{MaxInflight: 1, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	// A session whose compiles block on the gate keeps the only slot held.
	s.sess = engine.NewBoundedSession(engine.Config{
		ParseFault: func(string) { <-gate },
	}, engine.Limits{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(gate) // runs first: lets the held request finish

	// The average ten admitted 5s requests leave behind.
	s.met.mu.Lock()
	s.met.ewmaSecs, s.met.ewmaInit = 5, true
	s.met.mu.Unlock()

	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze?file=held.mcc", "text/x-mcc", strings.NewReader(sample))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.inflight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the held request never acquired the slot")
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 30; i++ {
		resp, body := post(t, ts.URL+fmt.Sprintf("/v1/analyze?file=p%d.mcc", i), "text/x-mcc", sample)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429 (body: %s)", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("Retry-After"); got != "5" {
			t.Fatalf("request %d: Retry-After = %q, want \"5\"", i, got)
		}
	}
}

// TestArtifactKeysStable pins the persist key of a raw and a JSON request
// on each endpoint. A key that drifts orphans every record a running
// daemon has persisted, so a change here must be deliberate.
func TestArtifactKeysStable(t *testing.T) {
	const twoFiles = `[{"name":"a.mcc","text":"class A { public: int x; A() : x(1) {} };\n"},{"name":"b.mcc","text":"int main() { A a; return a.x; }\n"}]`
	for _, tc := range []struct {
		endpoint, query, contentType, body, want string
	}{
		{"/v1/analyze", "?file=sample.mcc&v=true&classes=true&unreachable=1&callgraph=cha", "text/x-mcc", sample,
			"b9569e6646784c41a165443a2953d755006204aa2dd99cdcbe647b7e8ea6edb5"},
		{"/v1/analyze", "", "application/json", `{"sources":` + twoFiles + `,"options":{"callgraph":"all","no_delete_rule":true,"writes_are_uses":true,"library":["A","B"]},"verbose":true}`,
			"d61641d1d2298514733f1b4a67be6786c6797ddf2ceff7d9e35249e0e91e7afe"},
		{"/v1/lint", "?file=sample.mcc&format=sarif&budget=7&precision=heap&trust-downcasts=true", "text/x-mcc", sample,
			"43d1daf0d0592051060cefd56a8fd17741d948a66732f4a003bc3c9ddaef123a"},
		{"/v1/lint", "", "application/json", `{"sources":` + twoFiles + `,"options":{"sizeof":"conservative"},"format":"json","precision":"paper"}`,
			"3cc8a74f9d4d6a9fcdbbeb4fe09df8904d689c5719f8c0652ed6a2edba4b1b02"},
		{"/v1/strip", "?file=sample.mcc&keep-unreachable=true&sizeof=conservative", "text/x-mcc", sample,
			"899b6585a31cfe247731ed877f72a1be813c9d701dac664bd4df186c536d1348"},
		{"/v1/strip", "", "application/json", `{"sources":` + twoFiles + `,"keep_unreachable":true}`,
			"5bca9736a2b9b18f578a96c10d8e11f3315fd8b8ed26acc18cad375e270a2f68"},
	} {
		r := httptest.NewRequest(http.MethodPost, tc.endpoint+tc.query, strings.NewReader(tc.body))
		r.Header.Set("Content-Type", tc.contentType)
		b, herr := parseRequest(r)
		if herr != nil {
			t.Fatalf("%s %s: %v", tc.endpoint, tc.contentType, herr)
		}
		if got := artifactKey(tc.endpoint, b); got != tc.want {
			t.Errorf("%s %s: artifactKey = %s, want %s", tc.endpoint, tc.contentType, got, tc.want)
		}
	}
}
