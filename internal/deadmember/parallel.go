package deadmember

import (
	"context"

	"deadmembers/internal/failure"
	"deadmembers/internal/parallel"
	"deadmembers/internal/types"
)

// This file implements lines 6-8 of the paper's Figure 2, the pass over
// every reachable function, split into shards that run on worker
// goroutines.
//
// The pass's only order-sensitive output is the Reason/Witness pair
// recorded for each member — markLive keeps the *first* access that
// made a member live, in the deterministic ReachableFuncs order
// (qualified name, then declaration position, then parameter count, so
// overloads that share a name, such as a class's constructors, keep a
// fixed order too). To keep that exact semantics at any worker count:
//
//   - the sorted function list is split into CONTIGUOUS shards, one per
//     worker, each processed in order. Shard 0 marks straight into the
//     result; every later shard marks into a private slice indexed by
//     field ID (first-win within the shard);
//   - the private slices are merged in shard order, adopting a mark
//     only if the member is not yet live.
//
// Because shards are contiguous blocks of the sequential order, the
// earliest shard containing a mark for a member holds exactly the mark
// the sequential loop would have recorded, so the Result is
// byte-identical at any worker count. One worker is one shard: the
// paper's sequential loop.
//
// Shards share prog/h/info/res strictly read-only. Each function's walk
// (Walk) keeps its state on its own stack and only reads the side
// tables of types.Info; its visitor is the shard's own analysis value,
// which writes nothing but the shard's marks slice and visited map. So
// the pass is race-free by construction.
//
// Failure containment: every function runs inside its own recover
// boundary (processFuncGuarded). A faulting function keeps the marks it
// recorded before the fault, and every other function's marks are kept.
// Each shard lists its failures in function order and the lists are
// merged in shard order, so a salvaged Result is byte-identical at any
// worker count too.

// processFuncs runs the pass over funcs, in ReachableFuncs order, in up
// to exec.Workers contiguous shards.
func (a *analysis) processFuncs(funcs []*types.Func, exec Exec) {
	ctx := exec.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	shards := max(min(exec.Workers, len(funcs)), 1)
	size := (len(funcs) + shards - 1) / shards
	sinks := make([][]Mark, shards) // sinks[0] stays nil: shard 0 marks a.marks
	fails := make([][]*failure.Failure, shards)
	complete := parallel.For(ctx, shards, shards, func(w int) {
		lo, hi := w*size, min((w+1)*size, len(funcs))
		if lo >= hi {
			return
		}
		shard := a
		if w > 0 {
			sinks[w] = make([]Mark, len(a.marks))
			shard = a.forkWorker(sinks[w])
		}
		for _, fn := range funcs[lo:hi] {
			if ctx.Err() != nil {
				return
			}
			if pf := shard.processFuncGuarded(fn, exec.FuncFault); pf != nil {
				fails[w] = append(fails[w], pf)
			}
		}
	})
	// A shard that stopped early left ctx cancelled, so For reports it.
	if !complete {
		a.res.Interrupted = true
	}

	// Deterministic merge: shard order is sequential order, so the first
	// live mark seen here is the one the sequential loop would keep.
	for _, sink := range sinks {
		for id, m := range sink {
			if m.Live && !a.marks[id].Live {
				a.marks[id] = m
			}
		}
	}
	for _, fs := range fails {
		a.res.Failures = append(a.res.Failures, fs...)
	}
}

// forkWorker builds a worker-private analysis writing marks into sink;
// prog, h, info, opts, and res are shared read-only.
func (a *analysis) forkWorker(sink []Mark) *analysis {
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
