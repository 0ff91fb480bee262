package engine

import (
	"container/list"
	"context"
	"sync"
)

// Session is a compile-once cache: Compile returns the same Compilation
// for byte-identical sources, so ablation sweeps, benchmark loops, and
// verify-then-emit flows pay for the frontend exactly once per distinct
// input. Sessions are safe for concurrent use.
//
// The cache is production-grade for long-running services (cmd/deadmemd):
//
//   - concurrent Compile calls for the same fingerprint are deduplicated
//     (singleflight): one caller runs the frontend, the rest wait and
//     share its artifact;
//   - the cache is an LRU bounded by Limits — the total heap its entries
//     retain, as Compilation.RetainedBytes estimates it, and the entry
//     count — with least-recently-used entries evicted on insert (the
//     default zero Limits keep it unbounded, the original batch
//     behaviour).
type Session struct {
	cfg    Config
	limits Limits

	mu       sync.Mutex
	entries  map[string]*list.Element // fingerprint → *cacheEntry element
	lru      *list.List               // front = most recently used
	bytes    int64                    // sum of cached entries' RetainedBytes
	inflight map[string]*inflightCompile
	stats    Stats
}

// Limits bounds the session cache. Zero fields mean "unlimited".
type Limits struct {
	// MaxBytes caps the heap retained by cached compilations: each
	// entry is charged its Compilation.RetainedBytes, an estimate fixed
	// at compile time from the parser's node count and the source bytes.
	// An input whose estimate exceeds MaxBytes is compiled but never
	// cached.
	MaxBytes int64
	// MaxEntries caps the number of cached compilations.
	MaxEntries int
}

type cacheEntry struct {
	key  string
	comp *Compilation
}

// inflightCompile is a singleflight slot: the leader closes done after
// storing its result in comp.
type inflightCompile struct {
	done chan struct{}
	comp *Compilation
}

// Stats counts session activity, and accumulates stage timings of the
// frontend compiles actually performed.
type Stats struct {
	// Compiles is the number of frontend compiles performed (cache misses).
	Compiles int
	// Hits is the number of Compile calls served from the cache or from a
	// deduplicated in-flight compile.
	Hits int
	// Evictions is the number of entries dropped to enforce Limits.
	Evictions int
	// Entries and Bytes are point-in-time gauges of the cache contents
	// (Bytes sums the entries' RetainedBytes).
	Entries int
	Bytes   int64
	// Frontend accumulates Parse+Sema timings over all performed compiles.
	Frontend Timings
}

// NewSession returns an empty unbounded session compiling under cfg.
func NewSession(cfg Config) *Session {
	return NewBoundedSession(cfg, Limits{})
}

// NewBoundedSession returns an empty session compiling under cfg whose
// cache is bounded by limits.
func NewBoundedSession(cfg Config, limits Limits) *Session {
	return &Session{
		cfg:      cfg,
		limits:   limits,
		entries:  map[string]*list.Element{},
		lru:      list.New(),
		inflight: map[string]*inflightCompile{},
	}
}

// Compile returns the cached Compilation for sources, running the
// frontend only on the first sight of this exact content.
func (s *Session) Compile(sources ...Source) *Compilation {
	return s.CompileContext(context.Background(), sources...)
}

// CompileContext is Compile under a context. Compiles that were cancelled
// or degraded by a contained panic are returned to the caller but never
// cached: the next request for the same content gets a fresh attempt
// instead of a poisoned artifact. Concurrent calls for the same content
// share one frontend run; a waiter whose own context is cancelled stops
// waiting and returns a cancelled artifact of its own.
func (s *Session) CompileContext(ctx context.Context, sources ...Source) *Compilation {
	key := fingerprint(sources)
	for {
		s.mu.Lock()
		if el, ok := s.entries[key]; ok {
			s.stats.Hits++
			s.lru.MoveToFront(el)
			s.mu.Unlock()
			return el.Value.(*cacheEntry).comp
		}
		if fl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-fl.done:
				c := fl.comp
				if c.CancelErr() == nil && !c.Degraded() {
					s.mu.Lock()
					s.stats.Hits++
					s.mu.Unlock()
					return c
				}
				continue // leader's artifact unusable; retry (maybe lead)
			case <-ctx.Done():
				// Abandon the wait: hand this caller its own well-formed
				// cancelled artifact (cheap — every stage checks ctx first).
				return CompileContext(ctx, s.cfg, sources...)
			}
		}
		fl := &inflightCompile{done: make(chan struct{})}
		s.inflight[key] = fl
		s.mu.Unlock()

		// Compile outside the lock: a slow frontend must not serialize
		// unrelated cache hits.
		c := CompileContext(ctx, s.cfg, sources...)

		s.mu.Lock()
		s.stats.Compiles++
		s.stats.Frontend.Add(c.Timings())
		delete(s.inflight, key)
		if c.CancelErr() == nil && !c.Degraded() {
			s.insertLocked(key, c)
		}
		s.mu.Unlock()
		fl.comp = c
		close(fl.done)
		return c
	}
}

// insertLocked caches c under key and evicts from the LRU tail until the
// limits hold again. Entries that could never fit are not cached at all.
func (s *Session) insertLocked(key string, c *Compilation) {
	if el, ok := s.entries[key]; ok {
		s.removeLocked(el)
	}
	b := c.RetainedBytes()
	if s.limits.MaxBytes > 0 && b > s.limits.MaxBytes {
		return
	}
	el := s.lru.PushFront(&cacheEntry{key: key, comp: c})
	s.entries[key] = el
	s.bytes += b
	for (s.limits.MaxEntries > 0 && s.lru.Len() > s.limits.MaxEntries) ||
		(s.limits.MaxBytes > 0 && s.bytes > s.limits.MaxBytes) {
		back := s.lru.Back()
		if back == nil || back == el {
			break
		}
		s.removeLocked(back)
		s.stats.Evictions++
	}
}

// removeLocked drops one cache element and its byte accounting.
func (s *Session) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	s.lru.Remove(el)
	delete(s.entries, e.key)
	s.bytes -= e.comp.RetainedBytes()
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.Bytes = s.bytes
	return st
}
