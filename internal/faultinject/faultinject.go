// Package faultinject is test support for deadmemd's crash-safety
// claims: a seeded, deterministic fault injector and a persist.FS
// wrapper that simulates disk faults (EIO reads, ENOSPC, short writes,
// torn renames).
//
// It exists to prove those claims, not to be subtle: every injected
// fault is counted by kind, and no production code path imports it. The
// server's chaos soak (internal/server's TestChaosSoak) puts the wrapper
// under a real server's artifact store. Given the same seed and the same
// serialized sequence of operations, the injected faults are identical
// run to run.
package faultinject

import (
	"math/rand"
	"sync"
)

// Fault kinds, the keys of Counts.
const (
	KindReadEIO     = "fs.read.eio"
	KindWriteENOSPC = "fs.write.enospc"
	KindWriteShort  = "fs.write.short"
	KindRenameTorn  = "fs.rename.torn"
)

// Injector decides, pseudo-randomly but reproducibly, whether each
// potential fault site fires. Safe for concurrent use (decisions are
// serialized on one seeded source).
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rate   float64
	counts map[string]int64
}

// New returns an injector firing each fault site with probability rate
// (clamped to [0, 1]), drawing from a source seeded with seed.
func New(seed int64, rate float64) *Injector {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		rate:   rate,
		counts: map[string]int64{},
	}
}

// Fault rolls the dice for one fault site and records a hit under kind.
func (in *Injector) Fault(kind string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng.Float64() >= in.rate {
		return false
	}
	in.counts[kind]++
	return true
}

// Counts returns a snapshot of injected-fault counts by kind.
func (in *Injector) Counts() map[string]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Total returns the total number of injected faults.
func (in *Injector) Total() int64 {
	var n int64
	for _, v := range in.Counts() {
		n += v
	}
	return n
}
