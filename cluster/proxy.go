package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/cluster/ring"
	"repro/serve"
)

// Config configures a Router. The zero value of every field gets a
// sensible default from NewRouter; only Replicas is required.
type Config struct {
	// Addr is the router's listen address for ListenAndServe
	// (default ":8080").
	Addr string
	// Replicas is the static replica set (required, see ParseReplicas).
	// Ring membership is keyed by Replica.ID.
	Replicas []Replica
	// VirtualNodes is the ring's per-replica point count
	// (default ring.DefaultVirtualNodes).
	VirtualNodes int
	// LoadFactor is the bounded-load factor c: a replica carrying more
	// than c·ceil((total+1)/N) in-flight forwards is skipped in ring
	// order (default DefaultLoadFactor). Values < 1 are clamped to 1 by
	// the ring.
	LoadFactor float64
	// MaxInFlight bounds requests concurrently inside the router; excess
	// is shed with a structured 429 (default 256 — the router is
	// IO-bound, so its bound is much looser than a replica's).
	MaxInFlight int
	// MaxRequestBytes bounds request bodies (default 8 MiB, matching the
	// replicas' own cap so the router refuses what they would refuse).
	MaxRequestBytes int64
	// RateLimit, when > 0, is the router-wide token-bucket rate in
	// requests/second with burst RateBurst (<= 0 means ceil(RateLimit)).
	RateLimit float64
	RateBurst int
	// Health tunes the replica health checker.
	Health HealthConfig
	// StreamTimeout is how far the router extends its connection write
	// deadline for /v1/sweep responses, which legitimately stream far
	// past WriteTimeout (default 15m, matching the replicas' own sweep
	// deadline handling).
	StreamTimeout time.Duration
	// ReadTimeout / WriteTimeout configure the HTTP server of
	// ListenAndServe (defaults 10s / 60s, like a replica's).
	ReadTimeout, WriteTimeout time.Duration
	// ShutdownTimeout bounds the graceful drain of ListenAndServe
	// (default 10s).
	ShutdownTimeout time.Duration
	// Transport forwards the requests (default: a pooled http.Transport).
	Transport http.RoundTripper
	// Logf is the router's logger (default: discard).
	Logf func(format string, args ...any)
	// Logger receives the router's structured logs: one access line per
	// request at info (request id, route, serving replica, status, bytes,
	// duration, failover/spillover provenance) and failover, drain and
	// unroutable events at warn — every line carrying the request id, so
	// one id greps across router and replica logs. nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = ring.DefaultVirtualNodes
	}
	if c.LoadFactor <= 0 {
		c.LoadFactor = DefaultLoadFactor
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = 15 * time.Minute
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 60 * time.Second
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	if c.Transport == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 32
		c.Transport = tr
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// routingMemoEntries bounds the router's digest memo of inline graph
// bytes. An entry is a 32-byte digest plus a 64-byte key, so the memo
// stays around a megabyte while covering the default session caches of
// sixteen replicas.
const routingMemoEntries = 4096

// Router is the cluster's cache-affinity reverse proxy: one address that
// shards /v1 traffic across a memschedd replica set by canonical graph
// hash over a consistent-hash ring.
//
// Routing policy, in order:
//
//   - The request's key (serve.RoutingKey, behind a serve.DigestMemo of
//     the inline graphs already keyed) picks its ring owner; requests
//     with no extractable key (invalid bodies, plain GETs) round-robin
//     over routable replicas instead.
//   - Bounded load: an owner already carrying more than LoadFactor times
//     its fair share of in-flight forwards is skipped for the key's next
//     ring owner (counted as a spillover — affinity spreads to the
//     second choice, never a random replica). Only portable requests
//     (inline graph — any replica can serve them cold) spill; a
//     graph_id-only request is pinned to its owner, because a replica
//     that never saw the registration can only answer 404.
//   - Failover: a transport error or a 503 with code "draining" moves to
//     the next ring owner and feeds the health checker; a 429 on a
//     portable request spills to the next owner (the replica is alive,
//     just saturated), while a pinned request relays the 429 so the
//     client backs off and retries the same owner. Any other response —
//     including non-draining 503s, which client retries handle with
//     affinity intact — is relayed as-is.
//   - Once response bytes have streamed to the client the router never
//     fails over: a mid-stream replica death surfaces as a truncated
//     stream, and the client's retry-with-resume machinery (serve.Client
//     WithRetry) deduplicates the replay.
type Router struct {
	cfg      Config
	ring     *ring.Ring
	urls     map[string]string // replica id → base URL
	health   *Health
	prom     *routerMetrics
	digests  *serve.DigestMemo        // inline graph bytes → routing key
	load     map[string]*atomic.Int64 // in-flight forwards by replica id
	inFlight atomic.Int64
	client   *http.Client
	handler  http.Handler
	rr       atomic.Uint64
	start    time.Time

	readyOnce sync.Once
	ready     chan struct{}
	boundAddr atomic.Value // string
}

// NewRouter builds a router over cfg.Replicas.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	ids := make([]string, len(cfg.Replicas))
	urls := make(map[string]string, len(cfg.Replicas))
	load := make(map[string]*atomic.Int64, len(cfg.Replicas))
	for i, rep := range cfg.Replicas {
		ids[i] = rep.ID
		urls[rep.ID] = rep.URL
		load[rep.ID] = new(atomic.Int64)
	}
	rg, err := ring.New(ids, ring.WithVirtualNodes(cfg.VirtualNodes))
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:     cfg,
		ring:    rg,
		urls:    urls,
		health:  NewHealth(cfg.Replicas, cfg.Health),
		prom:    newRouterMetrics(),
		digests: serve.NewDigestMemo(routingMemoEntries),
		load:    load,
		client:  &http.Client{Transport: cfg.Transport},
		start:   time.Now(),
		ready:   make(chan struct{}),
	}
	rt.handler = rt.buildHandler()
	return rt, nil
}

// buildHandler composes the serve middleware chain in front of the keyed
// proxy and wires the router's own endpoints. GETs (health, metrics,
// stats passthrough) bypass the limits, as on a replica, so probes and
// scrapes stay reliable under overload.
func (rt *Router) buildHandler() http.Handler {
	var links []serve.Middleware
	if rt.cfg.RateLimit > 0 {
		links = append(links, serve.RateLimitMiddleware(rt.cfg.RateLimit, rt.cfg.RateBurst,
			func() { rt.prom.rateLimited.Add(1) }))
	}
	links = append(links,
		serve.ConcurrencyLimitMiddleware(int64(rt.cfg.MaxInFlight), &rt.inFlight,
			func() { rt.prom.shed.Add(1) }),
		serve.BodyCapMiddleware(rt.cfg.MaxRequestBytes),
	)
	keyed := serve.Chain(links...)(http.HandlerFunc(rt.handleKeyed))

	mux := http.NewServeMux()
	for _, path := range []string{"/v1/graphs", "/v1/schedule", "/v1/simulate", "/v1/sweep"} {
		mux.Handle("POST "+path, keyed)
	}
	for _, path := range []string{"/v1/stats", "/v1/schedulers"} {
		mux.HandleFunc("GET "+path, rt.handleUnkeyed)
	}
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, serve.CodeNotFound, "unknown route "+r.Method+" "+r.URL.Path)
	})

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.prom.requests.Add(1)
		start := time.Now()
		id := serve.EnsureRequestID(r)
		w.Header().Set(serve.RequestIDHeader, id)
		note := &fwdNote{}
		ctx := serve.ContextWithRequestID(r.Context(), id)
		ctx = context.WithValue(ctx, fwdNoteKey{}, note)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		mux.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if rt.cfg.Logger.Enabled(ctx, slog.LevelInfo) {
			attrs := make([]slog.Attr, 0, 9)
			attrs = append(attrs,
				slog.String("request_id", id),
				slog.String("method", r.Method),
				slog.String("route", r.URL.Path),
				slog.Int("status", status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", time.Since(start)))
			if note.replica != "" {
				attrs = append(attrs, slog.String("replica", note.replica))
			}
			if note.failovers > 0 {
				attrs = append(attrs, slog.Int("failovers", note.failovers))
			}
			if att := r.Header.Get(serve.RetryAttemptHeader); att != "" {
				attrs = append(attrs, slog.String("retry_attempt", att))
			}
			rt.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
		}
	})
}

// fwdNote collects what the forwarding path learns mid-request for the
// router's access log: which replica finally served, and how many
// failover hops it took to get there.
type fwdNote struct {
	replica   string
	failovers int
}

type fwdNoteKey struct{}

func noteFrom(ctx context.Context) *fwdNote {
	n, _ := ctx.Value(fwdNoteKey{}).(*fwdNote)
	return n
}

// logWarn emits one warn-level router event stamped with the request id.
func (rt *Router) logWarn(ctx context.Context, msg string, attrs ...slog.Attr) {
	if !rt.cfg.Logger.Enabled(ctx, slog.LevelWarn) {
		return
	}
	all := make([]slog.Attr, 0, len(attrs)+1)
	all = append(all, slog.String("request_id", serve.RequestIDFromContext(ctx)))
	all = append(all, attrs...)
	rt.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, msg, all...)
}

// statusWriter captures the response status and body size for the access
// log, forwarding Flush and Unwrap so streaming relays and write-deadline
// extensions keep working behind it.
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

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// Handler returns the router's HTTP handler (for tests and embedding).
func (rt *Router) Handler() http.Handler { return rt.handler }

// Health exposes the router's replica health checker (for tests and
// embedders that run their own probe loop).
func (rt *Router) Health() *Health { return rt.health }

// handleKeyed proxies one /v1 POST: read the (bounded) body once, into a
// buffer sized from its Content-Length, so it can be replayed across
// failover attempts; extract the affinity key; forward.
func (rt *Router) handleKeyed(w http.ResponseWriter, r *http.Request) {
	body, err := serve.ReadRequestBody(r, rt.cfg.MaxRequestBytes)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, serve.CodeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, serve.CodeBadRequest, "reading request body: "+err.Error())
		return
	}
	// An unextractable key (malformed body, invalid graph) still
	// forwards — unrouted — so the serving replica produces the
	// structured 4xx the client expects. An inline graph whose bytes were
	// keyed before skips the decode: the memo hashes the bytes instead.
	key, portable, _ := rt.digests.RoutingKey(body)
	if r.URL.Path == "/v1/graphs" {
		// Registration creates the replica-local session future graph_id
		// requests route to by this same key; spilling it to a
		// second-choice owner would strand them all with 404s. Pin it
		// like them.
		portable = false
	}
	if r.URL.Path == "/v1/sweep" {
		// Sweep responses legitimately stream past WriteTimeout.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(rt.cfg.StreamTimeout))
	}
	rt.forward(w, r, key, portable, body)
}

func (rt *Router) handleUnkeyed(w http.ResponseWriter, r *http.Request) {
	rt.forward(w, r, "", true, nil)
}

// candidates returns the routable replicas to try for key, in order:
// the key's ring preference list — with the bounded-load choice first
// when the request is portable — or a round-robin rotation for unkeyed
// requests.
func (rt *Router) candidates(key string, portable bool) []string {
	members := rt.ring.Members()
	var prefs []string
	if key != "" {
		prefs = rt.ring.Owners(key, len(members))
	} else {
		start := int(rt.rr.Add(1)) % len(members)
		prefs = make([]string, 0, len(members))
		for i := range members {
			prefs = append(prefs, members[(start+i)%len(members)])
		}
	}
	routable := prefs[:0:0]
	for _, id := range prefs {
		if rt.health.Routable(id) {
			routable = append(routable, id)
		}
	}
	if key == "" || !portable || len(routable) < 2 {
		return routable
	}
	// Bounded load: skip an owner already past c times its fair share of
	// the in-flight forwards, spilling to the key's next choice.
	chosen, ok := rt.ring.OwnerBounded(key, rt.cfg.LoadFactor, func(id string) int {
		if !rt.health.Routable(id) {
			return -1
		}
		return int(rt.load[id].Load())
	})
	if ok && chosen != routable[0] {
		rt.prom.spillover(routable[0])
		reordered := append(make([]string, 0, len(routable)), chosen)
		for _, id := range routable {
			if id != chosen {
				reordered = append(reordered, id)
			}
		}
		return reordered
	}
	return routable
}

// forward tries the key's candidate replicas in order until one yields a
// relayable response. body is nil for GET passthroughs.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, portable bool, body []byte) {
	cands := rt.candidates(key, portable)
	if len(cands) == 0 {
		rt.prom.unroutable.Add(1)
		rt.logWarn(r.Context(), "no routable replica")
		writeRetryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, serve.CodeUnavailable, "no routable replica")
		return
	}
	var lastErr string
	for i, id := range cands {
		done, errMsg := rt.attempt(w, r, id, portable, body, i, i == len(cands)-1)
		if done {
			return
		}
		lastErr = errMsg
	}
	rt.prom.unroutable.Add(1)
	rt.logWarn(r.Context(), "all replicas failed", slog.String("error", lastErr))
	writeRetryAfter(w, time.Second)
	writeError(w, http.StatusServiceUnavailable, serve.CodeUnavailable,
		"all replicas failed: "+lastErr)
}

// attempt forwards to one replica. hop is the candidate's index in the
// preference walk: the first forward carries the request id unchanged,
// and every failover hop suffixes it with "-f<hop>" — distinct per
// attempt in the replica's access log, while the base id stays a common
// substring across the router's and every replica's lines. done means a
// response (or error) was written to the client; otherwise errMsg
// explains why the next candidate should be tried.
func (rt *Router) attempt(w http.ResponseWriter, r *http.Request, id string, portable bool, body []byte, hop int, last bool) (done bool, errMsg string) {
	ld := rt.load[id]
	ld.Add(1)
	defer ld.Add(-1)

	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	// The query string rides along: ?trace=1 (and any future request
	// modifiers) must reach the replica that actually serves the request.
	target := rt.urls[id] + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, reader)
	if err != nil {
		return false, err.Error()
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	} else if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if att := r.Header.Get(serve.RetryAttemptHeader); att != "" {
		req.Header.Set(serve.RetryAttemptHeader, att)
	}
	if reqID := serve.RequestIDFromContext(r.Context()); reqID != "" {
		if hop > 0 {
			reqID = fmt.Sprintf("%s-f%d", reqID, hop)
		}
		req.Header.Set(serve.RequestIDHeader, reqID)
	}

	startAt := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			// The client went away; nothing to write, nothing to blame on
			// the replica.
			return true, ""
		}
		rt.health.ObserveFailure(id)
		rt.prom.failover(id)
		if n := noteFrom(r.Context()); n != nil {
			n.failovers++
		}
		rt.cfg.Logf("cluster: replica %s failed, failing over: %v", id, err)
		rt.logWarn(r.Context(), "replica failed, failing over",
			slog.String("replica", id), slog.String("error", err.Error()))
		return false, err.Error()
	}
	rt.prom.forward(id, time.Since(startAt))
	if n := noteFrom(r.Context()); n != nil {
		n.replica = id
	}

	switch resp.StatusCode {
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		ae := serve.DecodeAPIError(resp)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && ae.Code == serve.CodeDraining {
			rt.health.ObserveDraining(id)
			rt.prom.failover(id)
			if n := noteFrom(r.Context()); n != nil {
				n.failovers++
			}
			rt.cfg.Logf("cluster: replica %s draining, failing over", id)
			rt.logWarn(r.Context(), "replica draining, failing over", slog.String("replica", id))
			return false, ae.Message
		}
		if resp.StatusCode == http.StatusTooManyRequests && portable && !last {
			// Backpressure: the replica is alive but refusing; spill to
			// the key's next ring owner instead of bouncing the client.
			// Pinned requests relay the 429 instead — only the owner can
			// serve them, so the client must back off and retry it.
			rt.prom.spillover(id)
			rt.logWarn(r.Context(), "replica backpressure, spilling over", slog.String("replica", id))
			return false, ae.Message
		}
		// Terminal refusal (last candidate, or a non-draining 503):
		// relay the structured error, preserving the Retry-After hint.
		if ae.RetryAfter > 0 {
			writeRetryAfter(w, ae.RetryAfter)
		}
		writeError(w, resp.StatusCode, ae.Code, ae.Message)
		return true, ""
	}
	rt.relay(w, resp)
	return true, ""
}

// hopHeaders are connection-level headers never copied through a proxy.
var hopHeaders = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Authenticate": true,
	"Proxy-Authorization": true, "Te": true, "Trailer": true,
	"Transfer-Encoding": true, "Upgrade": true,
}

// relay streams resp to the client, flushing after every chunk so
// NDJSON sweep records are delivered as the replica emits them, never
// buffered whole. A mid-stream upstream failure surfaces as a truncated
// body — exactly what a direct replica death would look like — and is
// left to the client's resume machinery.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		if hopHeaders[k] {
			continue
		}
		if k == http.CanonicalHeaderKey(serve.RequestIDHeader) {
			// The router already stamped the response with the base id; the
			// replica's echo may carry a failover suffix meant for its own
			// logs, not for the client.
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// RouterHealthResponse is the body of the router's own GET /healthz.
type RouterHealthResponse struct {
	// Status is "ok" (every replica routable), "degraded" (some are
	// not), or "unavailable" (none are — the router answers 503).
	Status   string          `json:"status"`
	Replicas []ReplicaStatus `json:"replicas"`
	UptimeMS int64           `json:"uptime_ms"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	statuses := rt.health.Snapshot()
	routable := 0
	for _, st := range statuses {
		if st.Healthy && !st.Draining {
			routable++
		}
	}
	resp := RouterHealthResponse{
		Status:   "ok",
		Replicas: statuses,
		UptimeMS: time.Since(rt.start).Milliseconds(),
	}
	code := http.StatusOK
	switch {
	case routable == 0:
		resp.Status, code = "unavailable", http.StatusServiceUnavailable
	case routable < len(statuses):
		resp.Status = "degraded"
	}
	writeJSON(w, code, resp)
}

// ListenAndServe binds cfg.Addr, runs the health probe loop, and serves
// until ctx is cancelled, then shuts down gracefully within
// cfg.ShutdownTimeout. It returns nil after a clean shutdown.
func (rt *Router) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", rt.cfg.Addr)
	if err != nil {
		rt.readyOnce.Do(func() { close(rt.ready) })
		return err
	}
	rt.boundAddr.Store(ln.Addr().String())
	rt.readyOnce.Do(func() { close(rt.ready) })
	rt.cfg.Logf("memschedd: routing %d replicas on %s (vnodes %d, load factor %g)",
		len(rt.cfg.Replicas), ln.Addr(), rt.cfg.VirtualNodes, rt.cfg.LoadFactor)

	hctx, stopHealth := context.WithCancel(context.Background())
	defer stopHealth()
	go rt.health.Run(hctx)

	srv := &http.Server{
		Handler:      rt.Handler(),
		ReadTimeout:  rt.cfg.ReadTimeout,
		WriteTimeout: rt.cfg.WriteTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	rt.cfg.Logf("memschedd: router shutting down (draining up to %v)", rt.cfg.ShutdownTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), rt.cfg.ShutdownTimeout)
	defer cancel()
	shutErr := srv.Shutdown(shutCtx)
	if shutErr != nil {
		_ = srv.Close()
	}
	<-errc
	if shutErr != nil {
		return fmt.Errorf("cluster: shutdown: %w", shutErr)
	}
	rt.cfg.Logf("memschedd: router shutdown complete")
	return nil
}

// Addr returns the bound listen address of ListenAndServe; it blocks
// until the listener is bound (useful with ":0") and returns "" if
// binding failed.
func (rt *Router) Addr() string {
	<-rt.ready
	if a, ok := rt.boundAddr.Load().(string); ok {
		return a
	}
	return ""
}

// writeError / writeJSON / writeRetryAfter mirror the replica-side wire
// helpers so router-originated responses are indistinguishable from
// replica ones on the client.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, serve.ErrorResponse{Error: msg, Code: code,
		RequestID: w.Header().Get(serve.RequestIDHeader)})
}

// writeJSON encodes v before it commits the status line, so a value JSON
// cannot carry (a NaN or an infinite float) answers 500 with a structured
// body instead of the intended status with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		data, _ = json.Marshal(serve.ErrorResponse{Error: "encoding response: " + err.Error(), Code: serve.CodeInternal,
			RequestID: w.Header().Get(serve.RequestIDHeader)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
}

func writeRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(d / time.Second)
	if d%time.Second != 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}
