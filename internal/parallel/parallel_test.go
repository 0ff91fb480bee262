package parallel

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

var workerCounts = []int{1, 2, 8}

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range workerCounts {
		for _, n := range []int{0, 1, 7, 100} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				if !For(context.Background(), workers, n, func(i int) { runs[i].Add(1) }) {
					t.Fatal("For = false on a live context")
				}
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times, want 1", i, got)
					}
				}
			})
		}
	}
}

func TestForCancelledBeforeStartRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range workerCounts {
		var calls atomic.Int32
		if For(ctx, workers, 50, func(int) { calls.Add(1) }) {
			t.Errorf("workers=%d: For = true on a cancelled context", workers)
		}
		if got := calls.Load(); got != 0 {
			t.Errorf("workers=%d: %d items ran after the cancel", workers, got)
		}
	}
}

// TestForCancelMidRun cancels inside item k. Once the cancel has
// returned, no worker may pick up a new item; the only items that can
// still begin are those another worker had already checked the context
// for — at most one per other worker. With one worker nothing after k
// runs at all.
func TestForCancelMidRun(t *testing.T) {
	const n, k = 200, 10
	for _, workers := range workerCounts {
		ctx, cancel := context.WithCancel(context.Background())
		var cancelled, late atomic.Int32
		runs := make([]atomic.Int32, n)
		ok := For(ctx, workers, n, func(i int) {
			if cancelled.Load() != 0 {
				late.Add(1)
			}
			runs[i].Add(1)
			if i == k {
				cancel()
				cancelled.Store(1)
			}
		})
		if ok {
			t.Errorf("workers=%d: For = true after a cancel", workers)
		}
		if got := late.Load(); got > int32(workers-1) {
			t.Errorf("workers=%d: %d items started after the cancel, want at most %d", workers, got, workers-1)
		}
		for i := range runs {
			got := runs[i].Load()
			if got > 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, got)
			}
			if workers == 1 && got != 0 && i > k {
				t.Errorf("workers=1: index %d ran after the cancel at %d", i, k)
			}
		}
		if runs[k].Load() != 1 {
			t.Errorf("workers=%d: the cancelling item never ran", workers)
		}
	}
}
