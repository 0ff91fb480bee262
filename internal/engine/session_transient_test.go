package engine_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deadmembers/internal/engine"
)

// These tests pin the singleflight recovery contract: a leader whose
// compile fails transiently — cancelled by its own context, or degraded
// by a contained panic — must not poison the followers waiting on its
// flight. Followers retry (one of them becomes the new leader) and end
// up with a clean, cacheable artifact.

const transientSrc = `
class T {
public:
	int used;
	int unused;
	T() : used(1), unused(2) {}
};
int main() { T t; return t.used; }
`

func TestFollowersSurviveCancelledLeader(t *testing.T) {
	block := make(chan struct{})
	var parses atomic.Int32
	sess := engine.NewBoundedSession(engine.Config{
		// The first compile (the doomed leader) parks here until its
		// context is cancelled; retries sail through.
		ParseFault: func(string) {
			if parses.Add(1) == 1 {
				<-block
			}
		},
	}, engine.Limits{})
	src := engine.Source{Name: "t.mcc", Text: transientSrc}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan *engine.Compilation, 1)
	go func() { leaderDone <- sess.CompileContext(leaderCtx, src) }()

	deadline := time.Now().Add(5 * time.Second)
	for parses.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached the frontend")
		}
		time.Sleep(time.Millisecond)
	}

	// Followers with healthy contexts join the in-flight compile.
	const n = 4
	var wg sync.WaitGroup
	followers := make([]*engine.Compilation, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			followers[i] = sess.CompileContext(context.Background(), src)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let them reach the wait

	cancelLeader()
	close(block)
	wg.Wait()

	leader := <-leaderDone
	if leader.CancelErr() == nil {
		t.Error("leader was not cancelled; test lost its premise")
	}
	for i, c := range followers {
		if err := c.Err(); err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
		if c.CancelErr() != nil {
			t.Errorf("follower %d inherited the leader's cancellation", i)
		}
		if c.Degraded() {
			t.Errorf("follower %d got a degraded artifact", i)
		}
	}

	st := sess.Stats()
	if st.Entries != 1 {
		t.Errorf("Entries = %d, want 1 (the retry's clean artifact)", st.Entries)
	}
	// The cancelled leader's compile plus at least one clean retry; the
	// followers that lost the retry race fold onto it as hits.
	if st.Compiles < 2 {
		t.Errorf("Compiles = %d, want >= 2 (doomed leader + clean retry)", st.Compiles)
	}
	if st.Compiles+st.Hits < n+1 {
		t.Errorf("Compiles+Hits = %d, want >= %d (every caller served)", st.Compiles+st.Hits, n+1)
	}
}

func TestFollowersSurviveDegradedLeader(t *testing.T) {
	block := make(chan struct{})
	var parses atomic.Int32
	sess := engine.NewBoundedSession(engine.Config{
		// The first compile parks until the followers have joined its
		// flight, then panics in its parse — contained, so the
		// leader gets a degraded artifact; retries are clean.
		ParseFault: func(string) {
			if parses.Add(1) == 1 {
				<-block
				panic("injected parse fault")
			}
		},
	}, engine.Limits{})
	src := engine.Source{Name: "t.mcc", Text: transientSrc}

	leaderDone := make(chan *engine.Compilation, 1)
	go func() { leaderDone <- sess.CompileContext(context.Background(), src) }()

	deadline := time.Now().Add(5 * time.Second)
	for parses.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached the frontend")
		}
		time.Sleep(time.Millisecond)
	}

	const n = 4
	var wg sync.WaitGroup
	followers := make([]*engine.Compilation, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			followers[i] = sess.CompileContext(context.Background(), src)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let them reach the wait

	close(block)
	wg.Wait()

	leader := <-leaderDone
	if !leader.Degraded() {
		t.Error("leader was not degraded; test lost its premise")
	}
	for i, c := range followers {
		if err := c.Err(); err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
		if c.Degraded() {
			t.Errorf("follower %d inherited the leader's degraded artifact", i)
		}
	}
	if st := sess.Stats(); st.Entries != 1 {
		t.Errorf("Entries = %d, want 1 (only the clean retry cached)", st.Entries)
	}
}
