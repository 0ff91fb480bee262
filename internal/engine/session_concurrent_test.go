package engine_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"deadmembers/internal/engine"
)

// program returns a small but non-trivial MC++ source whose class name is
// salted by n, so distinct n produce distinct fingerprints.
func program(n int) engine.Source {
	text := fmt.Sprintf(`
class C%d {
public:
	int used;
	int unused;
	C%d() : used(%d), unused(0) {}
};
int main() {
	C%d c;
	return c.used;
}
`, n, n, n, n)
	return engine.Source{Name: fmt.Sprintf("p%d.mcc", n), Text: text}
}

// TestSessionConcurrentCompile hammers one session from many goroutines
// with a mix of identical and distinct inputs and asserts the compile
// counter shows exactly one frontend run per distinct fingerprint: the
// cache absorbs repeats and singleflight absorbs concurrent misses. Run
// with -race this also exercises the locking of the LRU and inflight maps.
func TestSessionConcurrentCompile(t *testing.T) {
	const (
		distinct   = 4
		goroutines = 64
		rounds     = 8
	)
	s := engine.NewSession(engine.Config{}, engine.Limits{})

	// Pin every goroutine to the same start line so the very first round
	// races identical fingerprints through the singleflight path.
	start := make(chan struct{})
	comps := make([][]*engine.Compilation, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				src := program((g + r) % distinct)
				c := s.Compile(src)
				if err := c.Err(); err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				comps[g] = append(comps[g], c)
			}
		}(g)
	}
	close(start)
	wg.Wait()

	st := s.Stats()
	if st.Compiles != distinct {
		t.Errorf("Compiles = %d, want %d (duplicate frontend runs for identical inputs)", st.Compiles, distinct)
	}
	if want := goroutines*rounds - distinct; st.Hits != want {
		t.Errorf("Hits = %d, want %d", st.Hits, want)
	}
	if st.Entries != distinct {
		t.Errorf("Entries = %d, want %d", st.Entries, distinct)
	}

	// Identical fingerprints must share one artifact (pointer-identical),
	// so call-graph caches are shared too.
	byKey := map[string]*engine.Compilation{}
	for _, list := range comps {
		for _, c := range list {
			if prev, ok := byKey[c.Fingerprint]; ok && prev != c {
				t.Fatalf("two distinct Compilations for fingerprint %s", c.Fingerprint)
			}
			byKey[c.Fingerprint] = c
		}
	}
}

// TestSessionBoundedEviction checks the LRU entry bound: inserting past
// MaxEntries evicts the least-recently-used entry and the byte gauge
// tracks the retained entries' estimates.
func TestSessionBoundedEviction(t *testing.T) {
	s := engine.NewSession(engine.Config{}, engine.Limits{MaxEntries: 2})
	a, b, c := program(0), program(1), program(2)

	s.Compile(a)
	s.Compile(b)
	s.Compile(a) // touch a: b becomes the LRU victim
	s.Compile(c) // evicts b
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after overflow: Evictions=%d Entries=%d, want 1, 2", st.Evictions, st.Entries)
	}
	s.Compile(a)
	if st := s.Stats(); st.Compiles != 3 {
		t.Errorf("a should still be cached: Compiles=%d, want 3", st.Compiles)
	}
	s.Compile(b)
	if st := s.Stats(); st.Compiles != 4 {
		t.Errorf("b should have been evicted: Compiles=%d, want 4", st.Compiles)
	}

	wantBytes := entryCost(a) + entryCost(b)
	if st := s.Stats(); st.Bytes != wantBytes {
		t.Errorf("Bytes=%d, want %d", st.Bytes, wantBytes)
	}
}

// TestSessionByteBound checks MaxBytes-driven eviction and the
// never-cacheable oversized path.
func TestSessionByteBound(t *testing.T) {
	a, b := program(0), program(1)
	s := engine.NewSession(engine.Config{},
		engine.Limits{MaxBytes: entryCost(a) + entryCost(b) - 1})
	s.Compile(a)
	s.Compile(b) // pushes total past MaxBytes → a evicted
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 1 || st.Bytes != entryCost(b) {
		t.Fatalf("Evictions=%d Entries=%d Bytes=%d, want 1, 1, %d",
			st.Evictions, st.Entries, st.Bytes, entryCost(b))
	}

	tiny := engine.NewSession(engine.Config{}, engine.Limits{MaxBytes: 1})
	tiny.Compile(a)
	tiny.Compile(a) // oversized entries are never cached: second call recompiles
	if st := tiny.Stats(); st.Compiles != 2 || st.Entries != 0 {
		t.Errorf("oversized input: Compiles=%d Entries=%d, want 2, 0", st.Compiles, st.Entries)
	}
}

// TestSessionRetainedBound: MaxBytes bounds the entries' retained-heap
// estimates, not their source bytes. With room for two entries' estimates
// (several times their sources), the third insert evicts the
// least-recently-used entry.
func TestSessionRetainedBound(t *testing.T) {
	a, b, c := program(0), program(1), program(2)
	cost := entryCost(a)
	if entryCost(b) != cost || entryCost(c) != cost {
		t.Fatalf("programs 0-2 should cost the same: %d, %d, %d", cost, entryCost(b), entryCost(c))
	}
	if src := int64(len(a.Name) + len(a.Text)); cost < 5*src {
		t.Fatalf("entry cost %d is not a retained-heap estimate (source bytes %d)", cost, src)
	}
	s := engine.NewSession(engine.Config{}, engine.Limits{MaxBytes: 2*cost + 1})
	s.Compile(a)
	s.Compile(b)
	s.Compile(a) // touch a: b becomes the LRU victim
	if st := s.Stats(); st.Evictions != 0 || st.Entries != 2 || st.Bytes != 2*cost {
		t.Fatalf("two entries: Evictions=%d Entries=%d Bytes=%d, want 0, 2, %d",
			st.Evictions, st.Entries, st.Bytes, 2*cost)
	}
	s.Compile(c) // third entry: over MaxBytes, b evicted
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Bytes != 2*cost {
		t.Fatalf("third insert: Evictions=%d Entries=%d Bytes=%d, want 1, 2, %d",
			st.Evictions, st.Entries, st.Bytes, 2*cost)
	}
	s.Compile(a)
	s.Compile(c)
	if st := s.Stats(); st.Compiles != 3 {
		t.Errorf("a and c should be cached: Compiles=%d, want 3", st.Compiles)
	}
	s.Compile(b)
	if st := s.Stats(); st.Compiles != 4 {
		t.Errorf("b should have been evicted: Compiles=%d, want 4", st.Compiles)
	}
}

// TestSessionWaiterCancellation: a waiter whose context dies while the
// leader compiles gets its own cancelled artifact instead of blocking.
func TestSessionWaiterCancellation(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	s := engine.NewSession(engine.Config{
		ParseFault: func(string) {
			once.Do(func() { <-gate }) // block only the leader's compile
		},
	}, engine.Limits{})
	src := program(7)

	leaderDone := make(chan *engine.Compilation)
	go func() { leaderDone <- s.Compile(src) }()

	// Wait until the leader is inside the frontend, then join as a waiter
	// with an already-doomed context.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waiter := s.CompileContext(ctx, src)
	if waiter.CancelErr() == nil {
		t.Errorf("cancelled waiter should report CancelErr, got nil")
	}

	close(gate)
	leader := <-leaderDone
	if err := leader.Err(); err != nil {
		t.Errorf("leader compile failed: %v", err)
	}
}

// entryCost is what a session charges a cached compilation of s: its
// retained-heap estimate, which is fixed at compile time.
func entryCost(s engine.Source) int64 {
	return engine.Compile(engine.Config{}, s).RetainedBytes()
}
