package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/serve"
)

// routerMetrics collects the router's counters and upstream latency
// histograms for its Prometheus-format /metrics endpoint. Like package
// serve's exposition it is dependency-free text output, sorted so
// scrapes diff cleanly.
type routerMetrics struct {
	requests    atomic.Uint64
	unroutable  atomic.Uint64
	rateLimited atomic.Uint64
	shed        atomic.Uint64

	mu         sync.Mutex
	forwarded  map[string]uint64 // by replica id
	failovers  map[string]uint64 // failed attempts routed past, by replica id
	spillovers map[string]uint64 // backpressure spills past, by replica id
	upstream   map[string]*upstreamHist
}

// upstreamBuckets mirror serve's request-latency buckets (seconds, plus
// the implicit +Inf): sub-millisecond warm schedules up to multi-second
// sweeps, as seen from the router.
var upstreamBuckets = [...]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

type upstreamHist struct {
	buckets [len(upstreamBuckets) + 1]uint64
	count   uint64
	sum     float64
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{
		forwarded:  make(map[string]uint64),
		failovers:  make(map[string]uint64),
		spillovers: make(map[string]uint64),
		upstream:   make(map[string]*upstreamHist),
	}
}

func (m *routerMetrics) forward(id string, d time.Duration) {
	sec := d.Seconds()
	idx := len(upstreamBuckets)
	for i, le := range upstreamBuckets {
		if sec <= le {
			idx = i
			break
		}
	}
	m.mu.Lock()
	m.forwarded[id]++
	h := m.upstream[id]
	if h == nil {
		h = &upstreamHist{}
		m.upstream[id] = h
	}
	h.buckets[idx]++
	h.count++
	h.sum += sec
	m.mu.Unlock()
}

func (m *routerMetrics) failover(id string) {
	m.mu.Lock()
	m.failovers[id]++
	m.mu.Unlock()
}

func (m *routerMetrics) spillover(id string) {
	m.mu.Lock()
	m.spillovers[id]++
	m.mu.Unlock()
}

func sortedKeys(mm map[string]uint64) []string {
	keys := make([]string, 0, len(mm))
	for k := range mm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// render writes the full router exposition; shares, statuses, loads and
// digests carry the ring, health, in-flight and routing-memo state owned
// by the Router.
func (m *routerMetrics) render(w *strings.Builder, shares map[string]float64, statuses []ReplicaStatus, loads map[string]int64, digests *serve.DigestMemo, inFlight int64, uptime time.Duration) {
	counter := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("memschedd_router_requests_total", "Requests received by the router.")
	fmt.Fprintf(w, "memschedd_router_requests_total %d\n", m.requests.Load())

	m.mu.Lock()
	counter("memschedd_router_forwarded_total", "Requests forwarded, by serving replica.")
	for _, id := range sortedKeys(m.forwarded) {
		fmt.Fprintf(w, "memschedd_router_forwarded_total{replica=%q} %d\n", id, m.forwarded[id])
	}
	counter("memschedd_router_failovers_total", "Attempts routed past a replica that failed or was draining.")
	for _, id := range sortedKeys(m.failovers) {
		fmt.Fprintf(w, "memschedd_router_failovers_total{replica=%q} %d\n", id, m.failovers[id])
	}
	counter("memschedd_router_spillovers_total", "Requests spilled past a backpressuring or over-loaded replica to a later ring owner.")
	for _, id := range sortedKeys(m.spillovers) {
		fmt.Fprintf(w, "memschedd_router_spillovers_total{replica=%q} %d\n", id, m.spillovers[id])
	}
	fmt.Fprintf(w, "# HELP memschedd_router_upstream_duration_seconds Forwarded-request latency as seen by the router, by replica.\n")
	fmt.Fprintf(w, "# TYPE memschedd_router_upstream_duration_seconds histogram\n")
	histIDs := make([]string, 0, len(m.upstream))
	for id := range m.upstream {
		histIDs = append(histIDs, id)
	}
	sort.Strings(histIDs)
	for _, id := range histIDs {
		h := m.upstream[id]
		cum := uint64(0)
		for i, le := range upstreamBuckets {
			cum += h.buckets[i]
			fmt.Fprintf(w, "memschedd_router_upstream_duration_seconds_bucket{replica=%q,le=\"%g\"} %d\n", id, le, cum)
		}
		fmt.Fprintf(w, "memschedd_router_upstream_duration_seconds_bucket{replica=%q,le=\"+Inf\"} %d\n", id, h.count)
		fmt.Fprintf(w, "memschedd_router_upstream_duration_seconds_sum{replica=%q} %g\n", id, h.sum)
		fmt.Fprintf(w, "memschedd_router_upstream_duration_seconds_count{replica=%q} %d\n", id, h.count)
	}
	m.mu.Unlock()

	counter("memschedd_router_unroutable_total", "Requests refused because no replica was routable.")
	fmt.Fprintf(w, "memschedd_router_unroutable_total %d\n", m.unroutable.Load())
	counter("memschedd_router_rate_limited_total", "Requests refused by the router's rate limiter (429, code \"rate_limited\").")
	fmt.Fprintf(w, "memschedd_router_rate_limited_total %d\n", m.rateLimited.Load())
	counter("memschedd_router_shed_total", "Requests refused by the router's concurrency limit (429, code \"shed\").")
	fmt.Fprintf(w, "memschedd_router_shed_total %d\n", m.shed.Load())
	hits, misses := digests.Counts()
	counter("memschedd_router_inline_digest_hits_total", "Inline-graph requests routed by the digest memo of their graph bytes.")
	fmt.Fprintf(w, "memschedd_router_inline_digest_hits_total %d\n", hits)
	counter("memschedd_router_inline_digest_misses_total", "Inline-graph requests routed by a cold serve.RoutingKey: graph bytes not in the digest memo, or a body the byte scan leaves to encoding/json.")
	fmt.Fprintf(w, "memschedd_router_inline_digest_misses_total %d\n", misses)

	gauge("memschedd_router_replica_healthy", "1 while the replica passes health checks, by replica.")
	for _, st := range statuses {
		fmt.Fprintf(w, "memschedd_router_replica_healthy{replica=%q} %d\n", st.ID, b2i(st.Healthy))
	}
	gauge("memschedd_router_replica_draining", "1 while the replica reports draining, by replica.")
	for _, st := range statuses {
		fmt.Fprintf(w, "memschedd_router_replica_draining{replica=%q} %d\n", st.ID, b2i(st.Draining))
	}
	gauge("memschedd_router_replica_load", "Requests currently forwarded to the replica and not yet answered.")
	loadIDs := make([]string, 0, len(loads))
	for id := range loads {
		loadIDs = append(loadIDs, id)
	}
	sort.Strings(loadIDs)
	for _, id := range loadIDs {
		fmt.Fprintf(w, "memschedd_router_replica_load{replica=%q} %d\n", id, loads[id])
	}
	gauge("memschedd_router_ring_share", "Exact fraction of the key space the replica's ring arcs own.")
	shareIDs := make([]string, 0, len(shares))
	for id := range shares {
		shareIDs = append(shareIDs, id)
	}
	sort.Strings(shareIDs)
	for _, id := range shareIDs {
		fmt.Fprintf(w, "memschedd_router_ring_share{replica=%q} %g\n", id, shares[id])
	}
	gauge("memschedd_router_in_flight", "Requests currently inside the router.")
	fmt.Fprintf(w, "memschedd_router_in_flight %d\n", inFlight)
	gauge("memschedd_router_uptime_seconds", "Seconds since the router was constructed.")
	fmt.Fprintf(w, "memschedd_router_uptime_seconds %g\n", uptime.Seconds())
	serve.WriteRuntimeMetrics(w)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	loads := make(map[string]int64, len(rt.load))
	for id, l := range rt.load {
		loads[id] = l.Load()
	}
	var b strings.Builder
	rt.prom.render(&b, rt.ring.Shares(), rt.health.Snapshot(), loads, rt.digests, rt.inFlight.Load(), time.Since(rt.start))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
