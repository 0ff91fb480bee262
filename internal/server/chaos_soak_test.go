package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deadmembers/internal/api"
	"deadmembers/internal/client"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/faultinject"
	"deadmembers/internal/lint"
	"deadmembers/internal/persist"
	"deadmembers/internal/textreport"
)

// TestChaosSoak is the crash-safety acceptance test: a server under
// fault injection (faulty disk under the artifact store, latency/503/drop
// on the /v1 wire) is hammered through the retrying client, killed abruptly
// mid-soak — with one on-disk record deliberately corrupted while it is
// down — and restarted on the same address over the same persist
// directory. The invariants:
//
//   - every successful response is byte-identical to the renderer's
//     ground truth (failures are allowed; wrong answers are not);
//   - corrupt bytes are never served (quarantined and recomputed);
//   - the restarted server recovers its hit rate from disk.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; run without -short")
	}
	dir := t.TempDir()

	// Ground truth for each bundle, rendered through the same writers
	// the server uses.
	type job struct {
		call string // "analyze" | "lint"
		req  *api.Request
		want string
	}
	var jobs []job
	for i := 0; i < 4; i++ {
		text := fmt.Sprintf(`class C%d {
public:
	int used;
	int unused;
	C%d() : used(1), unused(2) {}
};
int main() { C%d c; return c.used; }
`, i, i, i)
		name := fmt.Sprintf("c%d.mcc", i)
		comp := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: name, Text: text})
		if err := comp.Err(); err != nil {
			t.Fatal(err)
		}
		req := &api.Request{Sources: []api.Source{{Name: name, Text: text}}}
		var abuf bytes.Buffer
		if err := textreport.Write(&abuf, comp.Analyze(deadmember.Options{}), textreport.Options{}); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{"analyze", req, abuf.String()})
		var lbuf bytes.Buffer
		if err := lint.WriteText(&lbuf, comp.Lint(deadmember.Options{}, lint.Options{})); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{"lint", req, lbuf.String()})
	}

	cfg := Config{
		Workers:     1,
		PersistDir:  dir,
		MaxInflight: 4,
		MaxQueue:    64,
	}
	// Each boot gets its own seeded injector, shared by the disk under
	// the artifact store and the network in front of /v1/ only: health
	// probes and metrics stay truthful while requests are wrecked.
	boot := func(addr string, seed int64) (*Server, *faultinject.Injector, *http.Server, net.Listener) {
		t.Helper()
		in := faultinject.New(seed, 0.08)
		c := cfg
		c.persistFS = faultinject.FS(persist.OSFS{}, in)
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", s.Handler())
		mux.Handle("/v1/", faultinject.Handler(in, time.Millisecond, s.Handler()))
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		return s, in, hs, ln
	}
	s1, in1, hs1, ln := boot("127.0.0.1:0", 42)
	addr := ln.Addr().String()

	cl := client.New(client.Config{
		BaseURL:     "http://" + addr,
		MaxAttempts: 10,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
		// The restart gap is part of the test; fail-fast would turn
		// expected downtime into skipped coverage.
		BreakerThreshold: -1,
	})

	var (
		mu                  sync.Mutex
		successes, failures int
	)
	runPhase := func(workers, perWorker int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					j := jobs[(w*perWorker+i)%len(jobs)]
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					var res *client.Result
					var err error
					if j.call == "analyze" {
						res, err = cl.Analyze(ctx, j.req)
					} else {
						res, err = cl.Lint(ctx, j.req)
					}
					cancel()
					mu.Lock()
					if err != nil {
						failures++
					} else {
						successes++
						if string(res.Body) != j.want {
							t.Errorf("%s response diverges from ground truth:\n--- got ---\n%s--- want ---\n%s",
								j.call, res.Body, j.want)
						}
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}

	// Phase 1: soak until every bundle has had many chances to persist.
	runPhase(4, 24)

	recs, err := filepath.Glob(filepath.Join(dir, "objects", "*.rec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records persisted during phase 1; the soak cannot test restart recovery")
	}

	// Abrupt kill mid-soak: phase 2 is already in flight when the
	// listener and every open connection are severed with no drain. The
	// client's retries must bridge the gap to the restarted process.
	phase2 := make(chan struct{})
	go func() {
		defer close(phase2)
		runPhase(4, 24)
	}()
	time.Sleep(30 * time.Millisecond)
	hs1.Close()

	// While the server is down, corrupt one live record in place — the
	// torn-write the format exists to catch. The restarted server must
	// quarantine it on first read, never serve it. A faulted read in
	// phase 2 may have quarantined some phase-1 records since the glob,
	// so take the first one still on disk.
	var target string
	var raw []byte
	for _, rec := range recs {
		if raw, err = os.ReadFile(rec); err == nil {
			target = rec
			break
		}
	}
	if target == "" {
		t.Fatalf("no phase-1 record left on disk to corrupt: %v", err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(target, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, in2, hs2, _ := boot(addr, 43)
	defer hs2.Close()
	<-phase2

	mu.Lock()
	t.Logf("soak: %d successes, %d exhausted-retry failures", successes, failures)
	mu.Unlock()
	if successes == 0 {
		t.Fatal("soak produced no successful responses")
	}

	st1, st2 := s1.Store().Stats(), s2.Store().Stats()
	if st1.ServedCorrupt != 0 || st2.ServedCorrupt != 0 {
		t.Errorf("corrupt records served: before restart %d, after %d — must be 0",
			st1.ServedCorrupt, st2.ServedCorrupt)
	}
	if st2.Hits == 0 {
		t.Errorf("restarted server stats = %+v: zero persist hits, warm restart did not recover the cache", st2)
	}
	if st2.Corrupt == 0 {
		t.Errorf("restarted server stats = %+v: the planted corruption was never detected", st2)
	}
	chaosTotal := in1.Total() + in2.Total()
	if chaosTotal == 0 {
		t.Error("no faults injected; the soak exercised nothing")
	}
	t.Logf("soak: %d faults injected; store before=%+v after=%+v", chaosTotal, st1, st2)
}
