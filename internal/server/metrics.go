package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"deadmembers/internal/persist"
)

// latencyBuckets are the upper bounds (seconds) of the request-duration
// histogram, chosen to straddle both cache hits (microseconds) and cold
// compiles of large bundles (seconds).
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10}

// metrics aggregates server-side counters for the /metrics endpoint. All
// methods are safe for concurrent use; exposition is deterministic
// (sorted label sets) so tests and scrapers see stable output.
type metrics struct {
	mu        sync.Mutex
	requests  map[reqKey]int64
	latencies map[string]*histogram
	degraded  int64
	rejected  int64

	// ewmaSecs tracks the recent average service time (exponentially
	// weighted, α=0.2) across all endpoints, sampled only from requests
	// that held an execution slot; the adaptive Retry-After hint is
	// derived from it.
	ewmaSecs float64
	ewmaInit bool
}

// ewmaAlpha weights the newest sample in the service-time average.
const ewmaAlpha = 0.2

type reqKey struct {
	endpoint string
	code     int
}

type histogram struct {
	counts []int64 // one per bucket, plus a final +Inf bucket
	sum    float64
	count  int64
}

func newMetrics() *metrics {
	return &metrics{
		requests:  map[reqKey]int64{},
		latencies: map[string]*histogram{},
	}
}

// observe records one finished request.
func (m *metrics) observe(endpoint string, code int, took time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{endpoint, code}]++
	h := m.latencies[endpoint]
	if h == nil {
		h = &histogram{counts: make([]int64, len(latencyBuckets)+1)}
		m.latencies[endpoint] = h
	}
	secs := took.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, secs)
	h.counts[i]++
	h.sum += secs
	h.count++
}

// sampleService adds one request's execution-slot hold time to the
// service-time average.
func (m *metrics) sampleService(took time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	secs := took.Seconds()
	if !m.ewmaInit {
		m.ewmaSecs, m.ewmaInit = secs, true
	} else {
		m.ewmaSecs = ewmaAlpha*secs + (1-ewmaAlpha)*m.ewmaSecs
	}
}

// avgServiceSeconds returns the recent average service time, or 0 when
// no request has completed yet.
func (m *metrics) avgServiceSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ewmaSecs
}

// markDegraded counts a response produced from a degraded compilation or
// analysis (a pipeline stage panicked and was contained).
func (m *metrics) markDegraded() {
	m.mu.Lock()
	m.degraded++
	m.mu.Unlock()
}

// markRejected counts a request shed by the admission controller.
func (m *metrics) markRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// gauges are point-in-time values sampled at scrape: cache state from the
// engine session, inflight/queued from the admission controller.
type gauges struct {
	CacheHits      int
	CacheCompiles  int
	CacheEvictions int
	CacheEntries   int
	CacheBytes     int64
	Inflight       int
	Queued         int

	// Persist is the artifact-store snapshot (nil = persistence off).
	Persist *persist.Stats
}

// writePrometheus renders the Prometheus text exposition format.
func (m *metrics) writePrometheus(w io.Writer, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP deadmemd_requests_total Requests served, by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE deadmemd_requests_total counter\n")
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "deadmemd_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}

	fmt.Fprintf(w, "# HELP deadmemd_request_duration_seconds Request latency, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE deadmemd_request_duration_seconds histogram\n")
	endpoints := make([]string, 0, len(m.latencies))
	for e := range m.latencies {
		endpoints = append(endpoints, e)
	}
	sort.Strings(endpoints)
	for _, e := range endpoints {
		h := m.latencies[e]
		var cum int64
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "deadmemd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				e, formatBucket(ub), cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(w, "deadmemd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", e, cum)
		fmt.Fprintf(w, "deadmemd_request_duration_seconds_sum{endpoint=%q} %g\n", e, h.sum)
		fmt.Fprintf(w, "deadmemd_request_duration_seconds_count{endpoint=%q} %d\n", e, h.count)
	}

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("deadmemd_cache_hits_total", "Session-cache hits (served without a frontend compile).", int64(g.CacheHits))
	counter("deadmemd_cache_compiles_total", "Frontend compiles performed (cache misses).", int64(g.CacheCompiles))
	counter("deadmemd_cache_evictions_total", "Cache entries evicted to enforce the configured bounds.", int64(g.CacheEvictions))
	gauge("deadmemd_cache_entries", "Compilations currently cached.", int64(g.CacheEntries))
	gauge("deadmemd_cache_bytes", "Estimated heap bytes retained by the cached compilations.", g.CacheBytes)
	gauge("deadmemd_inflight", "Requests currently holding an execution slot.", int64(g.Inflight))
	gauge("deadmemd_queued", "Requests waiting for an execution slot.", int64(g.Queued))
	counter("deadmemd_degraded_total", "Responses produced from degraded (panic-contained) runs.", m.degraded)
	counter("deadmemd_rejected_total", "Requests shed by the admission controller (429).", m.rejected)

	if g.Persist != nil {
		p := g.Persist
		counter("deadmemd_persist_hits_total", "Responses served from the on-disk artifact store (no recompile).", p.Hits)
		counter("deadmemd_persist_misses_total", "Artifact-store lookups that fell through to the pipeline.", p.Misses)
		counter("deadmemd_persist_writes_total", "Artifacts durably persisted.", p.Writes)
		counter("deadmemd_persist_write_errors_total", "Failed artifact persists (non-fatal; artifact not cached).", p.WriteErrors)
		counter("deadmemd_persist_corrupt_total", "Records that failed validation on read and were quarantined.", p.Corrupt)
		counter("deadmemd_persist_served_corrupt_total", "Corrupt records served to a client (MUST be zero).", p.ServedCorrupt)
		counter("deadmemd_persist_evictions_total", "Records evicted to enforce the on-disk byte bound.", p.Evictions)
		counter("deadmemd_persist_quarantined_total", "Corrupt records moved into quarantine/ for post-mortem.", p.Quarantined)
		counter("deadmemd_persist_quarantine_evictions_total", "Quarantined files deleted to enforce the quarantine bound.", p.QuarantineEvictions)
		gauge("deadmemd_persist_entries", "Records currently on disk.", int64(p.Entries))
		gauge("deadmemd_persist_bytes", "Encoded bytes currently on disk.", p.Bytes)
		gauge("deadmemd_persist_quarantine_entries", "Files currently in quarantine.", int64(p.QuarantineEntries))
		gauge("deadmemd_persist_quarantine_bytes", "Bytes currently in quarantine.", p.QuarantineBytes)
	}
}

// formatBucket renders a bucket bound the way Prometheus clients
// conventionally do (shortest decimal, no exponent for these magnitudes).
func formatBucket(ub float64) string {
	if ub == math.Trunc(ub) {
		return strconv.FormatFloat(ub, 'f', 1, 64)
	}
	return strconv.FormatFloat(ub, 'g', -1, 64)
}
