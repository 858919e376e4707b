package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// metrics collects per-endpoint request counters and latency histograms for
// the Prometheus-format GET /metrics endpoint. The implementation is
// dependency-free: the text exposition format is a few lines of stable,
// sorted output, which is all a scraper needs.
type metrics struct {
	mu       sync.Mutex
	requests map[reqKey]uint64
	hist     map[string]*histogram
	// Per-workload-class breakdowns, fed by the X-Workload-Class request
	// header. The class label set is capped at maxClassLabels; classes past
	// the cap are folded into "other" so an adversarial client cannot grow
	// the exposition without bound.
	classReqs map[reqKey]uint64
	classHist map[string]*histogram
}

type reqKey struct {
	endpoint string
	code     int
}

// maxClassLabels bounds the distinct workload-class label values kept in
// the registry (matching workload.MaxClasses, plus headroom for "other").
const maxClassLabels = 64

// latencyBuckets are the histogram upper bounds in seconds (plus the
// implicit +Inf bucket): sub-millisecond warm schedules up to multi-second
// sweeps.
var latencyBuckets = [...]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

type histogram struct {
	buckets [len(latencyBuckets) + 1]uint64 // cumulative at render time; raw per-bucket here
	count   uint64
	sum     float64
}

func newMetrics() *metrics {
	return &metrics{
		requests:  make(map[reqKey]uint64),
		hist:      make(map[string]*histogram),
		classReqs: make(map[reqKey]uint64),
		classHist: make(map[string]*histogram),
	}
}

// bucketIndex maps a latency to its histogram bucket.
func bucketIndex(sec float64) int {
	for i, le := range latencyBuckets {
		if sec <= le {
			return i
		}
	}
	return len(latencyBuckets)
}

// observe records one finished request; class is the caller's workload
// class label ("" when the request carried none).
func (m *metrics) observe(endpoint string, class string, code int, d time.Duration) {
	sec := d.Seconds()
	idx := bucketIndex(sec)
	m.mu.Lock()
	m.requests[reqKey{endpoint, code}]++
	h := m.hist[endpoint]
	if h == nil {
		h = &histogram{}
		m.hist[endpoint] = h
	}
	h.buckets[idx]++
	h.count++
	h.sum += sec
	if class != "" {
		if _, known := m.classHist[class]; !known && len(m.classHist) >= maxClassLabels {
			class = "other"
		}
		m.classReqs[reqKey{class, code}]++
		ch := m.classHist[class]
		if ch == nil {
			ch = &histogram{}
			m.classHist[class] = ch
		}
		ch.buckets[idx]++
		ch.count++
		ch.sum += sec
	}
	m.mu.Unlock()
}

// endpoints the middleware labels explicitly; everything else is "other" so
// the label set stays bounded no matter what paths clients probe.
var knownEndpoints = map[string]bool{
	"/v1/graphs":     true,
	"/v1/schedule":   true,
	"/v1/simulate":   true,
	"/v1/sweep":      true,
	"/v1/schedulers": true,
	"/v1/stats":      true,
	"/healthz":       true,
	"/metrics":       true,
	"/debug/traces":  true,
}

func endpointLabel(path string) string {
	if knownEndpoints[path] {
		return path
	}
	return "other"
}

// render writes the full exposition: the request counters and latency
// histograms collected here plus the server gauges passed in. Output is
// sorted so scrapes diff cleanly.
func (m *metrics) render(w *strings.Builder, st StatsResponse) {
	m.mu.Lock()
	reqKeys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].endpoint != reqKeys[j].endpoint {
			return reqKeys[i].endpoint < reqKeys[j].endpoint
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	histKeys := make([]string, 0, len(m.hist))
	for k := range m.hist {
		histKeys = append(histKeys, k)
	}
	sort.Strings(histKeys)
	classKeys := make([]reqKey, 0, len(m.classReqs))
	for k := range m.classReqs {
		classKeys = append(classKeys, k)
	}
	sort.Slice(classKeys, func(i, j int) bool {
		if classKeys[i].endpoint != classKeys[j].endpoint {
			return classKeys[i].endpoint < classKeys[j].endpoint
		}
		return classKeys[i].code < classKeys[j].code
	})
	classHistKeys := make([]string, 0, len(m.classHist))
	for k := range m.classHist {
		classHistKeys = append(classHistKeys, k)
	}
	sort.Strings(classHistKeys)

	fmt.Fprintf(w, "# HELP memschedd_requests_total Requests served, by endpoint and HTTP status code.\n")
	fmt.Fprintf(w, "# TYPE memschedd_requests_total counter\n")
	for _, k := range reqKeys {
		fmt.Fprintf(w, "memschedd_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}
	fmt.Fprintf(w, "# HELP memschedd_request_duration_seconds Request latency, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE memschedd_request_duration_seconds histogram\n")
	for _, k := range histKeys {
		h := m.hist[k]
		cum := uint64(0)
		for i, le := range latencyBuckets {
			cum += h.buckets[i]
			fmt.Fprintf(w, "memschedd_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", k, le, cum)
		}
		fmt.Fprintf(w, "memschedd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", k, h.count)
		fmt.Fprintf(w, "memschedd_request_duration_seconds_sum{endpoint=%q} %g\n", k, h.sum)
		fmt.Fprintf(w, "memschedd_request_duration_seconds_count{endpoint=%q} %d\n", k, h.count)
	}
	if len(classKeys) > 0 {
		fmt.Fprintf(w, "# HELP memschedd_class_requests_total Requests served, by workload class (X-Workload-Class) and HTTP status code.\n")
		fmt.Fprintf(w, "# TYPE memschedd_class_requests_total counter\n")
		for _, k := range classKeys {
			fmt.Fprintf(w, "memschedd_class_requests_total{class=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.classReqs[k])
		}
		fmt.Fprintf(w, "# HELP memschedd_class_request_duration_seconds Request latency, by workload class.\n")
		fmt.Fprintf(w, "# TYPE memschedd_class_request_duration_seconds histogram\n")
		for _, k := range classHistKeys {
			h := m.classHist[k]
			cum := uint64(0)
			for i, le := range latencyBuckets {
				cum += h.buckets[i]
				fmt.Fprintf(w, "memschedd_class_request_duration_seconds_bucket{class=%q,le=\"%g\"} %d\n", k, le, cum)
			}
			fmt.Fprintf(w, "memschedd_class_request_duration_seconds_bucket{class=%q,le=\"+Inf\"} %d\n", k, h.count)
			fmt.Fprintf(w, "memschedd_class_request_duration_seconds_sum{class=%q} %g\n", k, h.sum)
			fmt.Fprintf(w, "memschedd_class_request_duration_seconds_count{class=%q} %d\n", k, h.count)
		}
	}
	m.mu.Unlock()

	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("memschedd_scheduled_total", "Scheduling runs that produced a schedule.", st.Scheduled)
	counter("memschedd_sweep_points_total", "Sweep point results streamed to clients.", st.SweepPoints)
	counter("memschedd_sweep_replayed_placements_total", "Placements committed by verified warm-start replay across sweep points.", st.SweepReplayedPlacements)
	counter("memschedd_sweep_replay_truncated_points_total", "Sweep points whose warm-start replay stopped before exhausting its trace.", st.SweepReplayTruncatedPoints)
	counter("memschedd_session_cache_hits_total", "Session cache hits on the schedule path.", st.SessionHits)
	counter("memschedd_session_cache_misses_total", "Session cache misses on the schedule path.", st.SessionMisses)
	counter("memschedd_session_cache_evictions_total", "Sessions displaced from the full LRU cache.", st.SessionEvictions)
	counter("memschedd_inline_digest_hits_total", "Inline graphs resolved from the digest memo of their bytes, without a rebuild.", st.InlineDigestHits)
	counter("memschedd_inline_digest_misses_total", "Inline graphs decoded, validated and hashed because their bytes missed the digest memo or their session was evicted.", st.InlineDigestMisses)
	counter("memschedd_candidate_cache_hits_total", "Engine candidate-memo hits, aggregated over runs.", st.CandidateHits)
	counter("memschedd_candidate_cache_misses_total", "Engine candidate-memo misses, aggregated over runs.", st.CandidateMisses)
	counter("memschedd_shed_total", "Requests refused by the load shedder (429, code \"shed\").", st.Shed)
	counter("memschedd_rate_limited_total", "Requests refused by the rate limiter (429, code \"rate_limited\").", st.RateLimited)
	counter("memschedd_retried_requests_total", "Requests arriving marked as client retries (X-Retry-Attempt).", st.Retried)
	fmt.Fprintf(w, "# HELP memschedd_chaos_faults_total Injected faults, by kind.\n# TYPE memschedd_chaos_faults_total counter\n")
	fmt.Fprintf(w, "memschedd_chaos_faults_total{kind=\"latency\"} %d\n", st.ChaosLatency)
	fmt.Fprintf(w, "memschedd_chaos_faults_total{kind=\"error\"} %d\n", st.ChaosErrors)
	fmt.Fprintf(w, "memschedd_chaos_faults_total{kind=\"truncate\"} %d\n", st.ChaosTruncations)
	counter("memschedd_chaos_injected_total", "Injected faults of any kind.", st.ChaosLatency+st.ChaosErrors+st.ChaosTruncations)
	gauge("memschedd_sessions_cached", "Sessions currently resident in the LRU cache.", st.SessionsCached)
	gauge("memschedd_session_cache_capacity", "Bound of the session LRU cache.", st.SessionCapacity)
	gauge("memschedd_in_flight", "Requests currently holding an in-flight slot.", st.InFlight)
	gauge("memschedd_max_in_flight", "Bound on concurrently executing requests.", st.MaxInFlight)
	gauge("memschedd_queue_depth", "Requests currently queued for an in-flight slot.", st.QueueDepth)
	drainingGauge := 0
	if st.Draining {
		drainingGauge = 1
	}
	gauge("memschedd_draining", "1 while the server is draining for shutdown.", drainingGauge)
	gauge("memschedd_uptime_seconds", "Seconds since the server was constructed.", float64(st.UptimeMS)/1000)
	WriteRuntimeMetrics(w)
}

// EndpointLatency is a point-in-time snapshot of one endpoint's latency
// histogram, exported so offline consumers (the cluster simulator's
// service-time calibration in package repro/clustersim) can be fed from a
// live server instead of hand-tuned constants.
type EndpointLatency struct {
	// Endpoint is the path label ("/v1/schedule", ..., or "other").
	Endpoint string
	// Count is completed requests; SumSeconds their summed latency.
	Count      uint64
	SumSeconds float64
	// Buckets holds non-cumulative counts per LatencyBuckets bound, plus a
	// final +Inf overflow bucket (len = len(LatencyBuckets)+1).
	Buckets []uint64
}

// MeanSeconds is the average latency of the snapshot (0 when empty).
func (e EndpointLatency) MeanSeconds() float64 {
	if e.Count == 0 {
		return 0
	}
	return e.SumSeconds / float64(e.Count)
}

// LatencyBuckets returns the histogram upper bounds (seconds) used by the
// metrics registry, excluding the implicit +Inf bucket.
func LatencyBuckets() []float64 {
	out := make([]float64, len(latencyBuckets))
	copy(out, latencyBuckets[:])
	return out
}

// EndpointLatencies snapshots the per-endpoint latency histograms, sorted
// by endpoint for deterministic consumption.
func (s *Server) EndpointLatencies() []EndpointLatency {
	m := s.prom
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.hist))
	for k := range m.hist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]EndpointLatency, 0, len(keys))
	for _, k := range keys {
		h := m.hist[k]
		buckets := make([]uint64, len(h.buckets))
		copy(buckets, h.buckets[:])
		out = append(out, EndpointLatency{
			Endpoint:   k,
			Count:      h.count,
			SumSeconds: h.sum,
			Buckets:    buckets,
		})
	}
	return out
}

// statusWriter captures the response status and body size for the
// metrics middleware and the access log, and forwards Flush so
// streaming endpoints keep working behind it.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer, so the
// sweep handler can extend the connection's write deadline past the
// server-wide WriteTimeout for long NDJSON streams.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	s.prom.render(&b, s.Stats())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
