// Package parallel holds the one parallel-for loop the analysis passes
// share: the liveness shards and the per-function lint pass. Callers
// keep determinism by writing each item's result into its own slot and
// merging in index order afterwards. The engine sizes both passes at
// GOMAXPROCS; no interface above them takes a worker count.
package parallel

import (
	"context"
	"sync"
)

// For runs fn(0..n-1) on up to workers goroutines, stopping early —
// between items, never mid-item — once ctx is cancelled. It reports
// whether every item ran and ctx is still live. With one worker (or one
// item) it runs inline, keeping single-threaded traces clean.
func For(ctx context.Context, workers, n int, fn func(int)) bool {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return false
			}
			fn(i)
		}
		return ctx.Err() == nil
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain without working; the feeder stops soon
				}
				fn(i)
			}
		}()
	}
	complete := true
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			complete = false
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return complete && ctx.Err() == nil
}
