package main

import (
	"math/rand"
	"runtime"
	"time"
)

// reference is a fixed piece of work that no code under test touches:
// integer hashing and a walk along a random cycle through an 8 MiB table.
// It allocates nothing, so the program's heap and garbage collector do
// not change its cost. Each run times it between ops; how long it takes
// tells how fast the host lets the guest's cores run during that run.
type reference struct {
	next    []int32 // a single random cycle through every index
	samples []time.Duration
	sink    uint64
}

const (
	refEntries = 2 << 20
	refHashes  = 8_000_000 // about half the time, the hops the other half
	refHops    = 200_000

	// refNominal is the reference's CPU time on the reference machine
	// (about its median there): times scaled by refNominal over the
	// run's median are CPU times at the reference machine's speed.
	refNominal = 40 * time.Millisecond
)

// newReference builds the cycle with Sattolo's shuffle.
func newReference() *reference {
	r := rand.New(rand.NewSource(1))
	next := make([]int32, refEntries)
	for i := range next {
		next[i] = int32(i)
	}
	for i := len(next) - 1; i > 0; i-- {
		j := r.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &reference{next: next}
}

// sample runs the work once on a locked thread and records that thread's
// CPU time, which leaves out whatever the process's other threads do.
func (c *reference) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := cpuClock(clockThreadCPUTime)
	x := c.sink | 1
	for i := 0; i < refHashes; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	p := int32(x % refEntries)
	for i := 0; i < refHops; i++ {
		p = c.next[p]
	}
	c.sink = x + uint64(p)
	c.samples = append(c.samples, cpuClock(clockThreadCPUTime)-start)
}

// scale is the factor that turns this run's CPU times into CPU times at
// the reference machine's speed: refNominal over the median sample.
func (c *reference) scale() float64 {
	m := median(durationsMs(c.samples))
	if m <= 0 {
		return 1
	}
	return ms(refNominal) / m
}
