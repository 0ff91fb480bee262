package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/faultinject"
	"deadmembers/internal/lint"
	"deadmembers/internal/persist"
	"deadmembers/internal/textreport"
)

// soakLife is one server process of the chaos soak: its own seeded
// disk faults, its own listener, and its own client transport, so no
// request ever reuses a connection an earlier life's kill cut.
type soakLife struct {
	srv    *Server
	in     *faultinject.Injector
	hs     *http.Server
	url    string
	client *http.Client

	// mu fences the handlers: each holds a read lock while it runs, and
	// kill takes the write lock, so no code of a killed life touches the
	// persist directory afterwards.
	mu   sync.RWMutex
	dead bool
}

func bootSoakLife(t *testing.T, cfg Config, seed int64) *soakLife {
	t.Helper()
	l := &soakLife{in: faultinject.New(seed, 0.08)}
	cfg.persistFS = faultinject.FS(persist.OSFS{}, l.in)
	var err error
	if l.srv, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := l.srv.Handler()
	l.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.RLock()
		defer l.mu.RUnlock()
		if l.dead {
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	})}
	go l.hs.Serve(ln)
	l.url = "http://" + ln.Addr().String()
	l.client = &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}
	return l
}

// kill severs the listener and every open connection with no drain, then
// waits out the handlers already running, as if the process had died.
func (l *soakLife) kill() {
	l.hs.Close()
	l.mu.Lock()
	l.dead = true
	l.mu.Unlock()
	l.client.CloseIdleConnections()
}

// TestChaosSoak is the crash-safety acceptance test. A server whose
// artifact store sits on a faulty disk serves plain HTTP requests in
// three phases: phase 1 against the live server; phase 2 in flight when
// the server is killed abruptly, with one on-disk record deliberately
// corrupted while it is down; phase 3 against a server restarted over
// the same persist directory. The invariants:
//
//   - every successful response is byte-identical to the renderer's
//     ground truth;
//   - a faulty disk never fails a request: only phase 2, cut off by the
//     kill, may see failures;
//   - corrupt bytes are never served (quarantined and recomputed);
//   - the restarted server recovers its hit rate from disk.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; run without -short")
	}
	dir := t.TempDir()

	// Ground truth for each request, rendered through the same writers
	// the server uses.
	type job struct {
		endpoint, name, text, want string
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
		comp := engine.Compile(engine.Config{}, engine.Source{Name: name, Text: text})
		if err := comp.Err(); err != nil {
			t.Fatal(err)
		}
		var abuf bytes.Buffer
		if err := textreport.Write(&abuf, comp.Analyze(deadmember.Options{}), textreport.Options{}); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{"/v1/analyze", name, text, abuf.String()})
		var lbuf bytes.Buffer
		if err := lint.WriteText(&lbuf, comp.Lint(deadmember.Options{}, lint.Options{})); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{"/v1/lint", name, text, lbuf.String()})
	}

	// send posts one job and reports whether it succeeded; a success must
	// match the ground truth byte for byte.
	send := func(l *soakLife, j job) bool {
		resp, err := l.client.Post(l.url+j.endpoint+"?file="+j.name, "text/x-mcc", strings.NewReader(j.text))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			return false
		}
		if string(body) != j.want {
			t.Errorf("%s response diverges from ground truth:\n--- got ---\n%s--- want ---\n%s", j.endpoint, body, j.want)
		}
		return true
	}
	const workers = 4
	// runPhase has each worker send n jobs, stopping at its first failure
	// if stopOnFailure is set. The workers walk the jobs in step, so
	// identical requests race each other through the session and the
	// store.
	runPhase := func(l *soakLife, n int, stopOnFailure bool, ok, failed *atomic.Int64) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if send(l, jobs[i%len(jobs)]) {
						ok.Add(1)
						continue
					}
					failed.Add(1)
					if stopOnFailure {
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	cfg := Config{
		PersistDir:  dir,
		MaxInflight: 4,
		MaxQueue:    64,
	}
	var ok1, failed1, ok2, failed2, ok3, failed3 atomic.Int64

	// Phase 1: soak until every job has had many chances to persist.
	l1 := bootSoakLife(t, cfg, 42)
	runPhase(l1, 24, false, &ok1, &failed1)

	recs, err := filepath.Glob(filepath.Join(dir, "objects", "*.rec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records persisted during phase 1; the soak cannot test restart recovery")
	}

	// Phase 2: the workers send until the kill cuts each of them off,
	// and the kill lands once the phase is under way.
	phase2 := make(chan struct{})
	go func() {
		defer close(phase2)
		runPhase(l1, math.MaxInt32, true, &ok2, &failed2)
	}()
	for deadline := time.Now().Add(10 * time.Second); ok2.Load() < workers && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	l1.kill()
	<-phase2

	// While the server is down, corrupt one live record in place — the
	// torn write the format exists to catch. The restarted server must
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

	// Phase 3: a restarted server over the same persist directory.
	l2 := bootSoakLife(t, cfg, 43)
	defer l2.kill()
	runPhase(l2, 24, false, &ok3, &failed3)

	t.Logf("soak: phase 1 %d ok/%d failed, phase 2 %d ok/%d failed, phase 3 %d ok/%d failed",
		ok1.Load(), failed1.Load(), ok2.Load(), failed2.Load(), ok3.Load(), failed3.Load())
	if failed1.Load() != 0 || failed3.Load() != 0 {
		t.Errorf("failed requests against a live server: phase 1 %d, phase 3 %d — a faulty disk must never fail a request",
			failed1.Load(), failed3.Load())
	}

	st1, st2 := l1.srv.Store().Stats(), l2.srv.Store().Stats()
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
	chaosTotal := l1.in.Total() + l2.in.Total()
	if chaosTotal == 0 {
		t.Error("no faults injected; the soak exercised nothing")
	}
	t.Logf("soak: %d faults injected; store before=%+v after=%+v", chaosTotal, st1, st2)
}
