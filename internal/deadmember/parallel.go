package deadmember

import (
	"context"
	"fmt"

	"deadmembers/internal/failure"
	"deadmembers/internal/parallel"
	"deadmembers/internal/types"
)

// This file implements the parallel liveness pass: lines 6-8 of the
// paper's Figure 2 sharded across worker goroutines.
//
// The sequential loop's only order-sensitive output is the Reason/Witness
// pair recorded for each member — markLive keeps the *first* access that
// made a member live, in the deterministic ReachableFuncs order. To keep
// that exact semantics under parallelism:
//
//   - the sorted function list is split into CONTIGUOUS shards, one per
//     worker, each processed in order into a worker-private mark map
//     (first-win within the shard);
//   - the shard maps are merged back in shard order, adopting a mark only
//     if the member is not yet live.
//
// Because shards are contiguous blocks of the sequential order, the
// earliest shard containing a mark for a member holds exactly the mark
// the sequential loop would have recorded, so the merged Result is
// byte-identical regardless of the worker count or GOMAXPROCS.
//
// Workers share prog/h/info/res strictly read-only: processFunc touches
// only the side tables of types.Info (plain map reads) and its private
// marks/visited maps, so the pass is race-free by construction (guarded
// by the engine's -race test).
//
// Failure containment: each shard runs inside one recover boundary (cheap:
// a single defer on the hot path). If the shard faults, its partial sink
// is discarded and the shard's functions are reprocessed in order, each
// inside its own boundary, into a fresh sink. The faulting function panics
// at the same point on retry (processFunc is deterministic), so the retry
// sink holds exactly what a sequential guarded run would have recorded:
// every other function's marks, plus the faulting function's pre-fault
// marks. Salvaged results therefore stay deterministic. Per-shard failure
// lists are merged in shard order for the same reason.

// processFuncsParallel shards funcs (already in deterministic order)
// across workers and merges the per-worker mark sets into a.marks.
func (a *analysis) processFuncsParallel(funcs []*types.Func, exec Exec) {
	ctx := exec.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	workers := exec.Workers
	if workers > len(funcs) {
		workers = len(funcs)
	}
	shards := make([]map[*types.Field]*Mark, workers)
	shardFails := make([][]*failure.Failure, workers)
	chunk := (len(funcs) + workers - 1) / workers
	complete := parallel.For(ctx, workers, workers, func(w int) {
		lo := w * chunk
		hi := min(lo+chunk, len(funcs))
		if lo >= hi {
			return
		}
		fns := funcs[lo:hi]
		sink := map[*types.Field]*Mark{}
		shards[w] = sink
		worker := a.forkWorker(sink)
		crashed := failure.Catch("liveness", fmt.Sprintf("shard %d", w), func() {
			for _, fn := range fns {
				if ctx.Err() != nil {
					return
				}
				if exec.FuncFault != nil {
					exec.FuncFault(fn)
				}
				worker.processFunc(fn)
			}
		})
		if crashed == nil {
			return
		}
		// The shard died mid-function: discard its sink and reprocess
		// the shard sequentially with per-function boundaries, which
		// isolates the faulting function(s) and salvages the rest.
		retrySink := map[*types.Field]*Mark{}
		shards[w] = retrySink
		retry := a.forkWorker(retrySink)
		for _, fn := range fns {
			if ctx.Err() != nil {
				return
			}
			if pf := retry.processFuncGuarded(fn, exec.FuncFault); pf != nil {
				shardFails[w] = append(shardFails[w], pf)
			}
		}
	})
	// A shard that stopped early left ctx cancelled, so For reports it.
	if !complete {
		a.res.Interrupted = true
	}

	// Deterministic merge: shard order is sequential order, so the first
	// live mark seen here is the one the sequential loop would keep.
	for _, shard := range shards {
		for f, m := range shard {
			if !m.Live {
				continue
			}
			dst := a.marks[f]
			if dst == nil {
				a.marks[f] = m
			} else if !dst.Live {
				*dst = *m
			}
		}
	}
	for _, fs := range shardFails {
		a.res.Failures = append(a.res.Failures, fs...)
	}
}

// forkWorker builds a worker-private analysis writing marks into sink;
// prog, h, info, opts, and res are shared read-only.
func (a *analysis) forkWorker(sink map[*types.Field]*Mark) *analysis {
	return &analysis{
		prog:    a.prog,
		h:       a.h,
		info:    a.info,
		opts:    a.opts,
		res:     a.res,
		marks:   sink,
		visited: map[*types.Class]bool{},
	}
}
