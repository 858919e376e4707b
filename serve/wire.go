// Package serve exposes the Session scheduling API as an HTTP/JSON service.
//
// The server (NewServer) registers task graphs, schedules or simulates them
// on a platform described in the request, and reports structured statistics.
// Sessions — the per-graph memo holders of package memsched — are cached in
// a bounded LRU keyed by the graph's canonical content hash, so repeated
// requests for the same graph hit warm rank/statics memos: exactly the
// access pattern of a scheduling service placed in front of a stream of
// recurring workflows. Command memschedd wraps the server in a binary;
// Client is the typed Go client; command schedload is a load generator
// built on it.
//
// Endpoints:
//
//	POST /v1/graphs      register a graph (and optional pool-time matrix),
//	                     returns its canonical hash as the graph id
//	POST /v1/schedule    run a list-scheduling heuristic (graph inline or
//	                     by id) on the pools given in the request
//	POST /v1/simulate    run the online dispatcher (dual graphs, 2 pools)
//	POST /v1/sweep       batch-evaluate one graph across a sweep of
//	                     platforms × schedulers × seeds (package
//	                     repro/sweep); streams NDJSON point records in
//	                     point order plus a trailing summary record
//	GET  /v1/schedulers  list the registered heuristic names
//	GET  /v1/stats       server counters: session-cache hits/misses,
//	                     engine candidate-cache totals, in-flight gauge
//	GET  /metrics        Prometheus text exposition: request counts and
//	                     latency histograms by endpoint, cache and
//	                     in-flight gauges, runtime gauges and build info
//	GET  /debug/traces   the K slowest captured request traces per route
//	                     (span timelines, see TracesResponse)
//	GET  /healthz        liveness probe
//
// Every error response is structured JSON: {"error": ..., "code": ...};
// a sweep that fails after its stream began terminates with an NDJSON
// record {"type": "error", ...} instead.
package serve

import (
	"encoding/json"
	"fmt"
	"time"
)

// PoolSpec describes one memory pool of the request's platform. A nil
// Capacity means unlimited.
type PoolSpec struct {
	Procs    int    `json:"procs"`
	Capacity *int64 `json:"capacity,omitempty"`
}

// RegisterRequest registers a task graph (package wire format of
// memsched.Graph) and, optionally, an explicit Times[task][pool] matrix for
// k-pool scheduling (the matrix becomes part of the graph id).
type RegisterRequest struct {
	Graph json.RawMessage `json:"graph"`
	Times [][]float64     `json:"times,omitempty"`
}

// RegisterResponse reports the registered graph's id — its canonical
// content hash — and size. Cached is true when an identical graph was
// already resident, in which case its warm session was kept.
type RegisterResponse struct {
	ID     string `json:"id"`
	Tasks  int    `json:"tasks"`
	Edges  int    `json:"edges"`
	Cached bool   `json:"cached"`
}

// ScheduleRequest asks for one scheduling (or simulation) run. Exactly one
// of GraphID and Graph must be set; Pools describes the platform. The
// option fields mirror the Session option set: Scheduler and Seed map to
// WithScheduler/WithSeed, Insertion to WithInsertion, TimeoutMS to
// WithTimeout, and Policy (simulate only: "rank" or "eft") to WithPolicy.
// Placements requests the full per-task placement list in the response.
type ScheduleRequest struct {
	GraphID string          `json:"graph_id,omitempty"`
	Graph   json.RawMessage `json:"graph,omitempty"`
	Times   [][]float64     `json:"times,omitempty"`

	Pools []PoolSpec `json:"pools"`

	Scheduler  string `json:"scheduler,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Insertion  bool   `json:"insertion,omitempty"`
	TimeoutMS  int64  `json:"timeout_ms,omitempty"`
	Policy     string `json:"policy,omitempty"`
	Placements bool   `json:"placements,omitempty"`
}

// Placement is one task's slot in a schedule: its start time and global
// processor index (pool 0 owns the first processors, pool 1 the next block,
// and so on).
type Placement struct {
	Task  int     `json:"task"`
	Start float64 `json:"start"`
	Proc  int     `json:"proc"`
}

// ScheduleResponse reports one scheduling run: the schedule-level results
// plus the statistics of memsched.Stats that apply to the run.
type ScheduleResponse struct {
	GraphID       string  `json:"graph_id"`
	Scheduler     string  `json:"scheduler"`
	Makespan      float64 `json:"makespan"`
	Peaks         []int64 `json:"peaks"`
	PoolTasks     []int   `json:"pool_tasks,omitempty"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	Events        int     `json:"events,omitempty"`
	WallMicros    int64   `json:"wall_us"`
	SessionCached bool    `json:"session_cached"`
	// RequestID echoes the request's id (X-Request-ID, generated when the
	// client sent none) so a response can be joined against the access
	// logs of every tier that touched it.
	RequestID string `json:"request_id,omitempty"`

	TaskPlacements []Placement `json:"task_placements,omitempty"`

	// Trace is the request's span timeline, present only when the request
	// opted in with ?trace=1: middleware and handler phases (admission,
	// decode, resolve, engine, encode) plus the engine's own sub-phases
	// under "engine/" (rank, statics, replay, placement, clone, search,
	// dispatch). Top-level spans (no "/" in the name) are disjoint and sum
	// to approximately the request's wall time.
	Trace []TraceSpan `json:"trace,omitempty"`
}

// TraceSpan is one wire-format span of a request trace: an interval named
// by phase, offset from the request's start. Spans appear in completion
// order; sub-phase names are slash-prefixed by their parent ("engine/rank").
type TraceSpan struct {
	Name        string `json:"name"`
	StartMicros int64  `json:"start_us"`
	DurMicros   int64  `json:"dur_us"`
}

// SweepRequest asks for one batch evaluation of a graph (inline or by id)
// across a sweep grid: either Alphas — memory fractions applied to the base
// platform in Pools, the paper's normalised-memory shape, with Peak
// optionally pinning the 100% reference — or Platforms, an explicit
// platform axis (optionally labelled by Xs). Schedulers accepts registry
// names plus "optimal", "sim-rank" and "sim-eft"; Seeds defaults to {0}.
// Workers asks for a worker count; the server grants at most that many from
// its server-wide sweep-worker budget (0 = as much of the budget as is
// free), so concurrent sweeps share the cores. TimeoutMS bounds the whole
// sweep.
type SweepRequest struct {
	GraphID string          `json:"graph_id,omitempty"`
	Graph   json.RawMessage `json:"graph,omitempty"`
	Times   [][]float64     `json:"times,omitempty"`

	Pools  []PoolSpec `json:"pools,omitempty"`
	Alphas []float64  `json:"alphas,omitempty"`
	Peak   int64      `json:"peak,omitempty"`

	Platforms [][]PoolSpec `json:"platforms,omitempty"`
	Xs        []float64    `json:"xs,omitempty"`

	Schedulers []string `json:"schedulers,omitempty"`
	Seeds      []int64  `json:"seeds,omitempty"`
	Workers    int      `json:"workers,omitempty"`
	TimeoutMS  int64    `json:"timeout_ms,omitempty"`

	// Replay selects the warm-start replay policy of the sweep: "auto"
	// (the default, also "") chains same-(scheduler, seed) points along
	// descending capacities and replays verified placement prefixes
	// between them; "off" schedules every point from scratch. Results are
	// identical either way (see sweep.Spec.Replay).
	Replay string `json:"replay,omitempty"`
}

// SweepPoint is one "point" NDJSON record of POST /v1/sweep: the outcome of
// scheduling the graph on one (platform, scheduler, seed) combination.
// Records arrive in point-index order regardless of server-side completion
// order.
type SweepPoint struct {
	Type       string  `json:"type"` // "point"
	Index      int     `json:"index"`
	Axis       int     `json:"axis"`
	X          float64 `json:"x"`
	Alpha      float64 `json:"alpha,omitempty"`
	Scheduler  string  `json:"scheduler"`
	Seed       int64   `json:"seed"`
	Feasible   bool    `json:"feasible"`
	Reason     string  `json:"reason,omitempty"` // memory_bound | sim_stuck | infeasible
	Makespan   float64 `json:"makespan"`
	Peaks      []int64 `json:"peaks,omitempty"`
	WallMicros int64   `json:"wall_us"`
	// ReplayedPlacements / ReplayTruncated report what warm-start replay
	// did for this point (zero / absent with replay off or on
	// chain-opening points).
	ReplayedPlacements int  `json:"replayed_placements,omitempty"`
	ReplayTruncated    bool `json:"replay_truncated,omitempty"`
}

// SweepCurve is one scheduler's makespan profile over the sweep axis;
// null entries mark axis points where no seed was feasible.
type SweepCurve struct {
	Scheduler string     `json:"scheduler"`
	X         []float64  `json:"x"`
	Makespan  []*float64 `json:"makespan"`
}

// SweepFrontier is one scheduler's memory-bound frontier: the first axis
// point at which every seed produced a schedule (-1 = never).
type SweepFrontier struct {
	Scheduler string  `json:"scheduler"`
	Axis      int     `json:"axis"`
	X         float64 `json:"x"`
}

// SweepSummary is the trailing "summary" NDJSON record of a successful
// sweep stream.
type SweepSummary struct {
	Type          string          `json:"type"` // "summary"
	GraphID       string          `json:"graph_id"`
	Points        int             `json:"points"`
	Feasible      int             `json:"feasible"`
	BestIndex     int             `json:"best_index"`
	BestMakespan  float64         `json:"best_makespan"`
	RefMakespan   float64         `json:"ref_makespan,omitempty"`
	Peak          int64           `json:"peak,omitempty"`
	Curves        []SweepCurve    `json:"curves,omitempty"`
	Frontier      []SweepFrontier `json:"frontier,omitempty"`
	Workers       int             `json:"workers"`
	WallMicros    int64           `json:"wall_us"`
	SessionCached bool            `json:"session_cached"`
}

// SweepError terminates a sweep stream that failed after records were
// already sent (cancellation, timeout, a fatal point error).
type SweepError struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
	Code  string `json:"code"`
}

// SchedulersResponse is the payload of GET /v1/schedulers.
type SchedulersResponse struct {
	Schedulers []string `json:"schedulers"`
}

// StatsResponse is the payload of GET /v1/stats.
type StatsResponse struct {
	// Requests counts every request served; Scheduled only the
	// schedule/simulate runs (and sweep points) that produced a schedule;
	// SweepPoints every sweep point result streamed to a client.
	Requests    uint64 `json:"requests"`
	Scheduled   uint64 `json:"scheduled"`
	SweepPoints uint64 `json:"sweep_points"`
	// SweepReplayedPlacements aggregates the placements sweep points
	// committed by verified warm-start replay instead of full evaluation;
	// SweepReplayTruncatedPoints counts the points whose replay stopped
	// early (a recorded decision no longer held under their capacities).
	SweepReplayedPlacements    uint64 `json:"sweep_replayed_placements"`
	SweepReplayTruncatedPoints uint64 `json:"sweep_replay_truncated_points"`
	// SessionHits / SessionMisses count schedule-path session-cache
	// lookups; SessionsCached is the current cache population and
	// SessionCapacity its bound.
	SessionHits     uint64 `json:"session_cache_hits"`
	SessionMisses   uint64 `json:"session_cache_misses"`
	SessionsCached  int    `json:"sessions_cached"`
	SessionCapacity int    `json:"session_cache_capacity"`
	// SessionEvictions counts sessions displaced from the full LRU cache —
	// the cache-pressure signal sharding the key space across replicas is
	// supposed to reduce.
	SessionEvictions uint64 `json:"session_cache_evictions"`
	// InlineDigestHits counts inline graphs (register, schedule, simulate,
	// sweep) resolved from the digest memo: the bytes matched a graph
	// already validated and its session was still resident, so nothing
	// was decoded or hashed again. InlineDigestMisses counts the inline
	// graphs that were rebuilt instead — unseen bytes, or a session the
	// cache had evicted. A client that re-serialises one graph
	// differently on every request shows up here as misses.
	InlineDigestHits   uint64 `json:"inline_digest_hits"`
	InlineDigestMisses uint64 `json:"inline_digest_misses"`
	// CandidateHits / CandidateMisses aggregate the engines' per-run
	// candidate-memo counters (memsched.Stats.CacheHits/CacheMisses)
	// over all runs.
	CandidateHits   uint64 `json:"candidate_cache_hits"`
	CandidateMisses uint64 `json:"candidate_cache_misses"`
	// InFlight is the current number of register/schedule/simulate
	// requests holding a semaphore slot, bounded by MaxInFlight;
	// QueueDepth is the number currently waiting for a slot.
	InFlight    int64 `json:"in_flight"`
	MaxInFlight int   `json:"max_in_flight"`
	QueueDepth  int64 `json:"queue_depth"`
	// Shed / RateLimited count requests refused with a structured 429 by
	// the load shedder and the token-bucket rate limiter; Retried counts
	// requests that arrived marked as client retries (RetryAttemptHeader).
	Shed        uint64 `json:"shed"`
	RateLimited uint64 `json:"rate_limited"`
	Retried     uint64 `json:"retried_requests"`
	// ChaosLatency / ChaosErrors / ChaosTruncations count the faults the
	// chaos middleware injected, by kind (all zero with chaos disabled).
	ChaosLatency     uint64 `json:"chaos_injected_latency"`
	ChaosErrors      uint64 `json:"chaos_injected_errors"`
	ChaosTruncations uint64 `json:"chaos_injected_truncations"`
	// Draining is true once graceful shutdown has begun.
	Draining bool `json:"draining"`
	// UptimeMS is the time since the server was constructed.
	UptimeMS int64 `json:"uptime_ms"`
}

// SessionHitRate returns the fraction of schedule-path lookups served by a
// cached session (0 when nothing was looked up).
func (st StatsResponse) SessionHitRate() float64 {
	total := st.SessionHits + st.SessionMisses
	if total == 0 {
		return 0
	}
	return float64(st.SessionHits) / float64(total)
}

// Error codes used in ErrorResponse.Code.
const (
	CodeBadRequest  = "bad_request"  // malformed or invalid request
	CodeNotFound    = "not_found"    // unknown route or graph id
	CodeTooLarge    = "too_large"    // request body over the configured bound
	CodeMemoryBound = "memory_bound" // the graph does not fit the platform's memories
	CodeSimStuck    = "sim_stuck"    // the online dispatcher deadlocked on memory
	CodeTimeout     = "timeout"      // the run's timeout expired or the client left
	CodeInternal    = "internal"     // unexpected server-side failure
	CodeRateLimited = "rate_limited" // token-bucket front door refused the request (429 + Retry-After)
	CodeShed        = "shed"         // load shedder refused: every slot busy, queue full (429 + Retry-After)
	CodeUnavailable = "unavailable"  // transient server-side unavailability (injected fault)
	CodeDraining    = "draining"     // server shutting down; the in-flight stream was drained, not crashed
)

// RetryAttemptHeader marks a request as a client-side retry: the Client
// sets it to the attempt number (1, 2, ...) on every try after the first,
// and the server counts such requests into its retried_requests metric —
// making client retry pressure observable from the server side.
const RetryAttemptHeader = "X-Retry-Attempt"

// WorkloadClassHeader labels a request with the workload class that issued
// it (see package repro/workload). The server breaks its request counters
// and latency histograms down by this label on /metrics
// (memschedd_class_requests_total, memschedd_class_request_duration_seconds),
// so an open-loop load run can read per-class behaviour off the server it
// drove. The label set is bounded server-side; unlabeled requests are
// simply not class-counted.
const WorkloadClassHeader = "X-Workload-Class"

// RequestIDHeader carries the request id: a short opaque token that names
// one logical client call across every tier that serves it. The server
// (and the cluster router) accept a client-supplied value, generate one
// when absent, echo it on the response, and stamp it on every log line
// and error body the request produces. The Client suffixes retries with
// "-<attempt>" and the router suffixes failover hops with "-f<n>", so the
// base id remains a substring that joins all tiers' logs.
const RequestIDHeader = "X-Request-ID"

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// RequestID echoes the request's id so a refusal can be joined
	// against server logs (absent only when the error predates id
	// assignment, e.g. a router-originated refusal before forwarding).
	RequestID string `json:"request_id,omitempty"`
}

// HealthResponse is the body of GET /healthz: enough per-replica state for
// a router's health checker (and a load report) to attribute cache
// behaviour and drain status to a specific replica. Status is "ok" while
// the replica serves (HTTP 200) and "draining" once graceful shutdown has
// begun (HTTP 503 — a drained replica is alive but must stop receiving
// routed work).
type HealthResponse struct {
	Status          string `json:"status"`
	ReplicaID       string `json:"replica_id,omitempty"`
	Draining        bool   `json:"draining"`
	SessionsCached  int    `json:"sessions_cached"`
	SessionCapacity int    `json:"session_cache_capacity"`
	SessionHits     uint64 `json:"session_cache_hits"`
	SessionMisses   uint64 `json:"session_cache_misses"`
	Evictions       uint64 `json:"session_cache_evictions"`
	UptimeMS        int64  `json:"uptime_ms"`
}

// APIError is the typed error the Client returns for non-2xx responses
// (and, with Status 200, for typed in-stream sweep error records).
type APIError struct {
	Status  int    // HTTP status code
	Code    string // machine-readable code (Code* constants)
	Message string
	// RetryAfter is the server's Retry-After hint, when it sent one
	// (429/503); the Client's backoff never retries sooner.
	RetryAfter time.Duration
	// RequestID is the failing request's id as the server reported it
	// (X-Request-ID response header, falling back to the error body), so
	// a client-side failure can be chased through server logs.
	RequestID string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("serve: %s (http %d, code %s, request %s)", e.Message, e.Status, e.Code, e.RequestID)
	}
	return fmt.Sprintf("serve: %s (http %d, code %s)", e.Message, e.Status, e.Code)
}
