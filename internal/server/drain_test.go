package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deadmembers/internal/engine"
)

// TestDrainLetsInflightFinish is the graceful-drain contract, end to end:
// once StartDrain is called, /readyz reports 503 and new analysis work is
// refused — but a request already holding an execution slot runs to
// completion and returns its full 200 response.
func TestDrainLetsInflightFinish(t *testing.T) {
	gate := make(chan struct{})
	s, err := New(Config{MaxInflight: 2, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a session whose compiles block on the gate so the in-flight
	// request is deterministically mid-pipeline when the drain starts.
	s.sess = engine.NewBoundedSession(engine.Config{
		ParseFault: func(string) { <-gate },
	}, engine.Limits{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		body string
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze?file=sample.mcc", "text/x-mcc", strings.NewReader(sample))
		if err != nil {
			inflight <- result{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- result{resp.StatusCode, string(b)}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for s.adm.inflight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never acquired a slot")
		}
		time.Sleep(time.Millisecond)
	}

	s.StartDrain()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status %d, want 503", resp.StatusCode)
	}

	resp2, body := post(t, ts.URL+"/v1/analyze?file=new.mcc", "text/x-mcc", "int main() { return 0; }")
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new request while draining: status %d, want 503 (body: %s)", resp2.StatusCode, body)
	}
	if !strings.Contains(body, "draining") {
		t.Errorf("refusal body should say draining, got: %s", body)
	}

	// The in-flight request must still be running, not killed by the drain.
	select {
	case r := <-inflight:
		t.Fatalf("in-flight request terminated by drain: status %d, body: %s", r.code, r.body)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	select {
	case r := <-inflight:
		if r.code != http.StatusOK {
			t.Fatalf("in-flight request: status %d, want 200 (body: %s)", r.code, r.body)
		}
		if !strings.Contains(r.body, "Gadget::unused") {
			t.Errorf("in-flight response incomplete:\n%s", r.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed after gate release")
	}
}
