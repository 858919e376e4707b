package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	memsched "repro"
	"repro/internal/memo"
	"repro/internal/trace"
	"repro/sweep"
)

// Config tunes a Server. The zero value is usable: every field has a
// default (see the field comments).
type Config struct {
	// Addr is the listen address of ListenAndServe (default "127.0.0.1:8080").
	Addr string
	// ReplicaID names this replica in the /healthz body so routers and
	// load reports can attribute state per replica. Empty is fine for a
	// single-node deployment (default "").
	ReplicaID string
	// CacheSize bounds the session LRU cache (default 256 graphs). It
	// also bounds the inline-graph digest memo in front of that cache:
	// one entry per distinct inline encoding seen, each naming the
	// session its bytes validated to (see DigestMemo).
	CacheSize int
	// MaxInFlight bounds the number of requests concurrently doing
	// CPU-bound work (body decode, graph validation, scheduling runs);
	// excess requests wait for a slot (default 64).
	MaxInFlight int
	// MaxRequestBytes bounds request bodies (default 8 MiB); larger
	// payloads get a structured 413. A body is read whole into one buffer
	// presized from its Content-Length when that is within this bound,
	// but never more than 1 MiB before the bytes arrive.
	MaxRequestBytes int64
	// MaxRunTime caps one scheduling run (default 30s); a request's
	// timeout_ms may shorten it but never extend past the cap.
	MaxRunTime time.Duration
	// MaxSweepTime caps one whole sweep request (default 5m); the
	// request's timeout_ms may shorten it.
	MaxSweepTime time.Duration
	// MaxSweepPoints bounds the number of points one sweep request may
	// expand to (default 4096); larger grids get a structured 400.
	MaxSweepPoints int
	// MaxSweepWorkers is the server-wide sweep-worker budget (default
	// GOMAXPROCS): the total fan-out across all concurrently executing
	// sweep requests never exceeds it. Each sweep claims up to its
	// requested worker count (0 in a request = the whole budget) from
	// whatever is currently free, and always gets at least one, so
	// concurrent sweeps degrade to narrower pools instead of
	// oversubscribing the CPUs.
	MaxSweepWorkers int
	// RateLimit, when > 0, enables the token-bucket rate limiter over the
	// /v1 endpoints: requests per second, shared across all clients.
	// Refused requests get a structured 429 (code "rate_limited") with a
	// Retry-After header (default off).
	RateLimit float64
	// RateBurst is the token bucket's depth (default ceil(RateLimit),
	// minimum 1).
	RateBurst int
	// ShedQueueDepth, when > 0, enables the load shedder: once every
	// in-flight slot is busy and this many requests are already queued
	// for one, further requests are refused immediately with a structured
	// 429 (code "shed") + Retry-After instead of queueing (default off —
	// requests wait as long as their context allows).
	ShedQueueDepth int
	// ChaosRate, when in (0, 1], enables the deterministic fault-injection
	// middleware on the /v1 endpoints: each request is faulted with this
	// probability (default off). Faults are drawn from ChaosFaults by a
	// PRNG seeded with ChaosSeed, so a fixed seed reproduces the same
	// fault sequence for the same request sequence.
	ChaosRate float64
	// ChaosSeed seeds the chaos PRNG (0 is a valid seed).
	ChaosSeed int64
	// ChaosMaxLatency bounds one injected latency fault (default 25ms).
	ChaosMaxLatency time.Duration
	// ChaosFaults selects the injected fault kinds (FaultLatency,
	// FaultError, FaultTruncate); empty = all three.
	ChaosFaults []string
	// ReadTimeout / WriteTimeout configure the HTTP server of
	// ListenAndServe (defaults 10s / 60s). Sweep streams are exempt from
	// WriteTimeout: the sweep handler extends its connection's write
	// deadline to cover the sweep's own budget.
	ReadTimeout, WriteTimeout time.Duration
	// ShutdownTimeout bounds the graceful drain of ListenAndServe after
	// its context is cancelled (default 10s); runs still alive afterwards
	// have their contexts cancelled.
	ShutdownTimeout time.Duration
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// Logger receives the server's structured logs: one access line per
	// request at info (request id, route, status, bytes, duration,
	// session-cache outcome), refusal events (shed, rate limit, injected
	// chaos) at warn, retained trace captures at debug. nil discards
	// everything at zero cost — log lines are built only when the level
	// is enabled.
	Logger *slog.Logger
	// TraceKeep bounds the per-route ring of slowest request traces
	// behind GET /debug/traces (default 8 per route).
	TraceKeep int
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.MaxRunTime <= 0 {
		c.MaxRunTime = 30 * time.Second
	}
	if c.MaxSweepTime <= 0 {
		c.MaxSweepTime = 5 * time.Minute
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 4096
	}
	if c.MaxSweepWorkers <= 0 {
		c.MaxSweepWorkers = runtime.GOMAXPROCS(0)
	}
	if c.RateLimit > 0 && c.RateBurst <= 0 {
		c.RateBurst = int(math.Ceil(c.RateLimit))
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	if c.ChaosMaxLatency <= 0 {
		c.ChaosMaxLatency = 25 * time.Millisecond
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
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.TraceKeep <= 0 {
		c.TraceKeep = 8
	}
	return c
}

// Server is the HTTP scheduling service. Create one with NewServer, mount
// Handler on any HTTP server, or run the full lifecycle (listen, serve,
// graceful shutdown) with ListenAndServe. Requests flow through an
// explicit, ordered middleware chain (see serve/middleware.go): chaos
// injection, rate limiting, load shedding, admission control, body caps —
// each an independent link, ready to be recomposed in front of a replica
// router.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	sem      chan struct{}
	sweepSem chan struct{}  // server-wide sweep-worker tokens (MaxSweepWorkers)
	limiter  *tokenBucket   // nil unless RateLimit > 0
	chaos    *chaosInjector // nil unless ChaosRate > 0
	logger   *slog.Logger
	traces   *traceStore
	start    time.Time

	smu      sync.Mutex
	sessions *memo.LRU[string, *memsched.Session]
	digests  *DigestMemo // inline graph bytes → session key

	requests, scheduled           atomic.Uint64
	sessionHits, sessionMisses    atomic.Uint64
	digestHits, digestMisses      atomic.Uint64
	candidateHits, candidateMiss  atomic.Uint64
	sweepPoints                   atomic.Uint64
	sweepReplayed, sweepTruncated atomic.Uint64
	shed, rateLimited, retried    atomic.Uint64
	inFlight, waiting             atomic.Int64
	draining                      atomic.Bool
	prom                          *metrics

	readyOnce sync.Once
	ready     chan struct{}
	boundAddr atomic.Value // string, set once the listener is bound
}

// NewServer builds a Server from cfg (zero value = all defaults).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		sweepSem: make(chan struct{}, cfg.MaxSweepWorkers),
		sessions: memo.NewLRU[string, *memsched.Session](cfg.CacheSize),
		digests:  NewDigestMemo(cfg.CacheSize),
		start:    time.Now(),
		ready:    make(chan struct{}),
		prom:     newMetrics(),
		logger:   cfg.Logger,
		traces:   newTraceStore(cfg.TraceKeep),
	}
	if cfg.RateLimit > 0 {
		s.limiter = newTokenBucket(cfg.RateLimit, cfg.RateBurst)
	}
	if cfg.ChaosRate > 0 {
		s.chaos = newChaosInjector(cfg)
	}

	// The middleware chains, outermost link first (metrics instrumentation
	// wraps the whole mux in Handler). GET endpoints bypass everything so
	// probes and scrapes stay reliable under overload and injected chaos.
	api := Chain(s.withChaos, s.withRateLimit, s.withShed, s.withAdmission, s.withBodyCap)
	sweepChain := Chain(s.withChaos, s.withRateLimit, s.withShed, s.withSweepAdmission, s.withBodyCap)

	mux := http.NewServeMux()
	mux.Handle("POST /v1/graphs", api(http.HandlerFunc(s.handleRegister)))
	mux.Handle("POST /v1/schedule", api(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.handleRun(w, r, false) })))
	mux.Handle("POST /v1/simulate", api(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.handleRun(w, r, true) })))
	mux.Handle("POST /v1/sweep", sweepChain(http.HandlerFunc(s.handleSweep)))
	mux.HandleFunc("GET /v1/schedulers", s.handleSchedulers)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no such endpoint: %s %s", r.Method, r.URL.Path))
	})
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler (all /v1 endpoints plus
// /healthz, the Prometheus /metrics and the /debug/traces ring),
// independent of the ListenAndServe lifecycle. Every request is counted
// and timed into the metrics registry by endpoint and status code,
// assigned a request id (adopted from X-Request-ID or generated) that is
// echoed on the response before any handler runs — so even refusals
// carry it — and logged as one structured access line. POST /v1
// requests additionally run under a span recorder; timelines that rank
// among the slowest per route are retained for GET /debug/traces.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		attempt := r.Header.Get(RetryAttemptHeader)
		if attempt != "" {
			s.retried.Add(1)
		}
		start := time.Now()
		id := EnsureRequestID(r)
		w.Header().Set(RequestIDHeader, id)
		note := &reqNote{}
		ctx := ContextWithRequestID(r.Context(), id)
		ctx = context.WithValue(ctx, noteKey{}, note)
		var rec *trace.Recorder
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/") {
			rec = trace.NewRecorder()
			ctx = trace.WithRecorder(ctx, rec)
		}
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		s.mux.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: implicit 200
		}
		elapsed := time.Since(start)
		route := endpointLabel(r.URL.Path)
		s.prom.observe(route, r.Header.Get(WorkloadClassHeader), status, elapsed)
		if rec != nil && rec.Len() > 0 {
			capture := TraceCapture{
				RequestID:    id,
				Route:        route,
				Status:       status,
				Start:        rec.Epoch(),
				DurMicros:    elapsed.Microseconds(),
				Spans:        wireSpans(rec),
				DroppedSpans: rec.Dropped(),
			}
			if s.traces.offer(capture) && s.logger.Enabled(ctx, slog.LevelDebug) {
				s.logger.LogAttrs(ctx, slog.LevelDebug, "trace captured",
					slog.String("request_id", id),
					slog.String("route", route),
					slog.Int64("dur_us", capture.DurMicros),
					slog.Int("spans", len(capture.Spans)))
			}
		}
		if s.logger.Enabled(ctx, slog.LevelInfo) {
			attrs := make([]slog.Attr, 0, 10)
			attrs = append(attrs,
				slog.String("request_id", id),
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.Int("status", status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", elapsed))
			if s.cfg.ReplicaID != "" {
				attrs = append(attrs, slog.String("replica", s.cfg.ReplicaID))
			}
			if attempt != "" {
				attrs = append(attrs, slog.String("retry_attempt", attempt))
			}
			if class := r.Header.Get(WorkloadClassHeader); class != "" {
				attrs = append(attrs, slog.String("class", class))
			}
			if note.cacheKnown {
				attrs = append(attrs, slog.Bool("session_cached", note.cacheHit))
			}
			s.logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
		}
	})
}

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled, then
// shuts down gracefully: the listener closes immediately, in-flight
// requests get cfg.ShutdownTimeout to drain, and any still alive afterwards
// have their request contexts cancelled so runs stop cooperatively. It
// returns nil after a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		s.readyOnce.Do(func() { close(s.ready) })
		return err
	}
	s.boundAddr.Store(ln.Addr().String())
	s.readyOnce.Do(func() { close(s.ready) })
	s.cfg.Logf("memschedd: listening on %s (cache %d sessions, %d in-flight)",
		ln.Addr(), s.cfg.CacheSize, s.cfg.MaxInFlight)

	baseCtx, cancelRuns := context.WithCancel(context.Background())
	defer cancelRuns()
	srv := &http.Server{
		Handler:      s.Handler(),
		ReadTimeout:  s.cfg.ReadTimeout,
		WriteTimeout: s.cfg.WriteTimeout,
		BaseContext:  func(net.Listener) context.Context { return baseCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.cfg.Logf("memschedd: shutting down (draining up to %v)", s.cfg.ShutdownTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	// In-flight work gets half the drain budget to finish normally; then
	// its request contexts are cut while the connections are still open, so
	// stragglers terminate as typed "draining" errors (a final NDJSON error
	// record on committed sweep streams) instead of severed connections.
	// The remaining half flushes those responses — it must cover Shutdown's
	// idle-connection poll interval (up to ~500ms), so the budget halves
	// rather than taking a thinner slice.
	grace := time.AfterFunc(s.cfg.ShutdownTimeout/2, cancelRuns)
	shutErr := srv.Shutdown(shutCtx)
	grace.Stop()
	cancelRuns() // cut the request contexts of anything that outlived the drain
	if shutErr != nil {
		_ = srv.Close()
	}
	<-errc // Serve has returned http.ErrServerClosed
	if shutErr != nil {
		return fmt.Errorf("serve: shutdown: %w", shutErr)
	}
	s.cfg.Logf("memschedd: shutdown complete")
	return nil
}

// Addr returns the bound listen address of ListenAndServe; it blocks until
// the listener is bound (useful with ":0") and returns "" if binding
// failed.
func (s *Server) Addr() string {
	<-s.ready
	if a, ok := s.boundAddr.Load().(string); ok {
		return a
	}
	return ""
}

// handleHealthz answers the liveness/readiness probe with the replica's
// identity and session-cache state. A draining replica answers 503 so ring
// routers (and plain load balancers watching the status code) stop sending
// it work while its in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.smu.Lock()
	cached, evictions := s.sessions.Len(), s.sessions.Evictions()
	s.smu.Unlock()
	resp := HealthResponse{
		Status:          "ok",
		ReplicaID:       s.cfg.ReplicaID,
		Draining:        s.draining.Load(),
		SessionsCached:  cached,
		SessionCapacity: s.cfg.CacheSize,
		SessionHits:     s.sessionHits.Load(),
		SessionMisses:   s.sessionMisses.Load(),
		Evictions:       evictions,
		UptimeMS:        time.Since(s.start).Milliseconds(),
	}
	status := http.StatusOK
	if resp.Draining {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() StatsResponse {
	s.smu.Lock()
	cached := s.sessions.Len()
	evictions := s.sessions.Evictions()
	s.smu.Unlock()
	st := StatsResponse{
		Requests:                   s.requests.Load(),
		Scheduled:                  s.scheduled.Load(),
		SweepPoints:                s.sweepPoints.Load(),
		SweepReplayedPlacements:    s.sweepReplayed.Load(),
		SweepReplayTruncatedPoints: s.sweepTruncated.Load(),
		SessionHits:                s.sessionHits.Load(),
		SessionMisses:              s.sessionMisses.Load(),
		SessionsCached:             cached,
		SessionCapacity:            s.cfg.CacheSize,
		SessionEvictions:           evictions,
		InlineDigestHits:           s.digestHits.Load(),
		InlineDigestMisses:         s.digestMisses.Load(),
		CandidateHits:              s.candidateHits.Load(),
		CandidateMisses:            s.candidateMiss.Load(),
		InFlight:                   s.inFlight.Load(),
		MaxInFlight:                s.cfg.MaxInFlight,
		QueueDepth:                 s.waiting.Load(),
		Shed:                       s.shed.Load(),
		RateLimited:                s.rateLimited.Load(),
		Retried:                    s.retried.Load(),
		Draining:                   s.draining.Load(),
		UptimeMS:                   time.Since(s.start).Milliseconds(),
	}
	if s.chaos != nil {
		st.ChaosLatency = s.chaos.latencies.Load()
		st.ChaosErrors = s.chaos.faults.Load()
		st.ChaosTruncations = s.chaos.truncations.Load()
	}
	return st
}

// acquire takes one in-flight slot, waiting until one frees or ctx ends.
// The waiting gauge feeds the load shedder and the queue_depth stat.
func (s *Server) acquire(ctx context.Context) error {
	s.waiting.Add(1)
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() {
	s.inFlight.Add(-1)
	<-s.sem
}

// acquireSweepToken blocks (respecting ctx) for one token of the
// server-wide sweep-worker budget — the admission ticket of a sweep
// request, claimed before the general in-flight slot so queued sweeps
// never camp on the slots the schedule path needs.
func (s *Server) acquireSweepToken(ctx context.Context) error {
	select {
	case s.sweepSem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// topUpSweepWorkers grows a sweep's claim from held tokens toward want
// without waiting: concurrent sweeps share whatever of the budget is free
// instead of stacking full-size pools. Returns the new total.
func (s *Server) topUpSweepWorkers(held, want int) int {
	for held < want {
		select {
		case s.sweepSem <- struct{}{}:
			held++
		default:
			return held
		}
	}
	return held
}

// releaseSweepWorkers returns n claimed tokens.
func (s *Server) releaseSweepWorkers(n int) {
	for i := 0; i < n; i++ {
		<-s.sweepSem
	}
}

// decodeBody reads the request body and decodes it into v, reporting
// (status, code) classified errors. The body must hold exactly one JSON
// value, as for json.Unmarshal and so for RoutingKey: anything but
// whitespace after it is malformed. graph is v's inline-graph field.
//
// The body is read once, into a buffer sized by ReadRequestBody, and
// scanned once by scanKeyed. When the scan finds an inline graph and no
// graph id, and the digest of its bytes and times is in the replica's
// digest memo, those exact bytes already passed validation as the
// top-level graph of a body. Then only the rest of the body is decoded,
// with the graph value spliced out as {}, and *graph aliases the body
// bytes instead of a copy. This is exact: scanKeyed refuses every body
// encoding/json could read differently (duplicate, case-variant or
// escaped keys, a null graph, trailing data), so the whole body decodes
// exactly when the spliced one does, and to the same value.
//
// Any other body is decoded whole by json.Unmarshal, which accepts
// exactly the bodies the Decoder below accepts, and to the same value. A
// body either refuses is decoded again by encoding/json's Decoder, so
// statuses and error texts stay that decoder's. A failed read is replayed
// to it: the bytes read so far, then the read error. The size bound lives
// in the withBodyCap middleware, so a body past it fails the read with
// *http.MaxBytesError, a 413, unless its malformed first bytes stop the
// decoder first, a 400, just as when the decoder streamed the body.
//
// The returned scannedGraph carries the digest the scan computed, which
// inlineSession reuses instead of hashing the graph again.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any, graph *json.RawMessage) (scannedGraph, error) {
	body, err := ReadRequestBody(r, s.cfg.MaxRequestBytes)
	var sg scannedGraph
	if err == nil {
		var certified bool
		sg, certified = s.certifiedDecode(body, v, graph)
		if certified || json.Unmarshal(body, v) == nil {
			return sg, nil
		}
	}
	if err = decodeJSON(body, err, v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return sg, err
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, "malformed JSON: "+err.Error())
		return sg, err
	}
	return sg, nil
}

// certifiedDecode is decodeBody's fast path: it decodes body into v
// without decoding the inline graph, when the graph's digest is memoized.
// sg is the scanned graph whenever the scan digested one; ok reports that
// v was decoded.
func (s *Server) certifiedDecode(body []byte, v any, graph *json.RawMessage) (sg scannedGraph, ok bool) {
	sg, scanned := inlineDigest(body)
	if !scanned {
		return sg, false
	}
	if _, hit := s.digests.get(sg.digest); !hit {
		return sg, false
	}
	end := sg.at + len(sg.graph)
	rest := make([]byte, 0, len(body)-len(sg.graph)+2)
	rest = append(append(append(rest, body[:sg.at]...), "{}"...), body[end:]...)
	if json.Unmarshal(rest, v) != nil {
		return sg, false
	}
	*graph = sg.graph
	return sg, true
}

// decodeJSON decodes the one JSON value of body into v with
// encoding/json's Decoder, then refuses trailing data. A non-nil readErr
// is what reading the body failed with after those bytes; the decoder
// meets it where it would have met it reading the request.
func decodeJSON(body []byte, readErr error, v any) error {
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	dec := json.NewDecoder(src)
	err := dec.Decode(v)
	if err == nil {
		err = trailingData(dec)
	}
	return err
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// trailingData reports anything but whitespace left in dec after its
// first value.
func trailingData(dec *json.Decoder) error {
	_, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err == nil, errors.As(err, new(*json.SyntaxError)):
		return errors.New("invalid data after top-level value")
	}
	return err
}

// buildSession decodes an inline graph (plus optional times matrix) into a
// validated Session. Errors have already been written to w.
func (s *Server) buildSession(w http.ResponseWriter, raw json.RawMessage, times [][]float64) (*memsched.Session, bool) {
	g := memsched.NewGraph()
	if err := json.Unmarshal(raw, g); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "malformed graph: "+err.Error())
		return nil, false
	}
	var opts []memsched.SessionOption
	if times != nil {
		opts = append(opts, memsched.WithPoolTimes(times))
	}
	sess, err := memsched.NewSession(g, opts...)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid graph: "+err.Error())
		return nil, false
	}
	return sess, true
}

// intern stores sess in the session cache under its canonical hash. When an
// identical session is already resident the warm one is returned and kept
// (cached = true).
func (s *Server) intern(sess *memsched.Session) (resident *memsched.Session, cached bool) {
	key := sess.GraphHash()
	s.smu.Lock()
	defer s.smu.Unlock()
	if warm, ok := s.sessions.Get(key); ok {
		return warm, true
	}
	s.sessions.Put(key, sess)
	return sess, false
}

func (s *Server) lookup(id string) (*memsched.Session, bool) {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.sessions.Get(id)
}

// inlineSession resolves an inline graph to its session, the shared path
// of registration and of every inline request. A digest-memo hit whose
// session is still resident returns that session without decoding the
// graph again; anything else (unseen bytes, an evicted session) runs
// buildSession and intern, then records the bytes' digest. The digest is
// sg's when sg scanned these very bytes and times, so a request hashes its
// graph once. cached reports whether the session was already resident.
// Errors have been written to w.
func (s *Server) inlineSession(w http.ResponseWriter, graph json.RawMessage, times [][]float64, sg scannedGraph) (sess *memsched.Session, cached, ok bool) {
	d := sg.digestFor(graph, times)
	if key, hit := s.digests.get(d); hit {
		if sess, resident := s.lookup(key); resident {
			s.digestHits.Add(1)
			return sess, true, true
		}
	}
	built, ok := s.buildSession(w, graph, times)
	if !ok {
		return nil, false, false
	}
	sess, cached = s.intern(built)
	s.digests.put(d, sess.GraphHash())
	s.digestMisses.Add(1)
	return sess, cached, true
}

// hasGraph reports whether a request carries an inline graph: a JSON null
// counts as absent, exactly like a missing member.
func hasGraph(raw json.RawMessage) bool {
	return len(raw) > 0 && string(raw) != "null"
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	// Admission (the in-flight slot) happened in withAdmission: registration
	// decodes and validates arbitrary graphs — CPU-bound work that shares
	// the in-flight budget with the scheduling runs.
	endDecode := trace.Start(r.Context(), "decode")
	var req RegisterRequest
	sg, err := s.decodeBody(w, r, &req, &req.Graph)
	endDecode()
	if err != nil {
		return
	}
	if !hasGraph(req.Graph) {
		writeError(w, http.StatusBadRequest, CodeBadRequest, `missing "graph"`)
		return
	}
	sess, cached, ok := s.inlineSession(w, req.Graph, req.Times, sg)
	if !ok {
		return
	}
	g := sess.Graph()
	writeJSON(w, http.StatusOK, RegisterResponse{
		ID:     sess.GraphHash(),
		Tasks:  g.NumTasks(),
		Edges:  g.NumEdges(),
		Cached: cached,
	})
}

// resolveSession turns a request's graph reference (id or inline) into a
// session, preferring a cached warm one. sg is what decodeBody scanned.
// Errors have been written to w.
func (s *Server) resolveSession(w http.ResponseWriter, graphID string, graph json.RawMessage, times [][]float64, sg scannedGraph) (sess *memsched.Session, fromCache, ok bool) {
	inline := hasGraph(graph)
	switch {
	case graphID != "" && inline:
		writeError(w, http.StatusBadRequest, CodeBadRequest, `set exactly one of "graph_id" and "graph"`)
		return nil, false, false
	case graphID != "":
		if times != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, `"times" requires an inline "graph" (a registered id already carries its matrix)`)
			return nil, false, false
		}
		sess, found := s.lookup(graphID)
		if !found {
			s.sessionMisses.Add(1)
			writeError(w, http.StatusNotFound, CodeNotFound,
				fmt.Sprintf("graph %q is not registered (register it or inline it; the cache is bounded, so it may have been evicted)", graphID))
			return nil, false, false
		}
		s.sessionHits.Add(1)
		return sess, true, true
	case inline:
		sess, cached, ok := s.inlineSession(w, graph, times, sg)
		if !ok {
			return nil, false, false
		}
		if cached {
			s.sessionHits.Add(1)
		} else {
			s.sessionMisses.Add(1)
		}
		return sess, cached, true
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, `set "graph_id" or "graph"`)
		return nil, false, false
	}
}

// platformOf validates and builds the request's platform. Errors have been
// written to w.
func platformOf(w http.ResponseWriter, specs []PoolSpec) (memsched.Platform, bool) {
	if len(specs) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, `missing "pools"`)
		return memsched.Platform{}, false
	}
	pools := make([]memsched.Pool, len(specs))
	for i, spec := range specs {
		capacity := int64(memsched.Unlimited)
		if spec.Capacity != nil {
			capacity = *spec.Capacity
		}
		pools[i] = memsched.Pool{Procs: spec.Procs, Capacity: capacity}
	}
	p := memsched.NewPlatform(pools...)
	if err := p.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid platform: "+err.Error())
		return memsched.Platform{}, false
	}
	return p, true
}

// knownScheduler reports whether name resolves in the scheduler registry.
func knownScheduler(name string) bool {
	name = strings.ToLower(strings.TrimSpace(name))
	for _, n := range memsched.Schedulers() {
		if n == name {
			return true
		}
	}
	return false
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, simulate bool) {
	// withAdmission already holds the in-flight slot across this whole
	// span — body decode, graph validation and the scheduling run, not
	// just the engine call: multi-MB inline graphs cost real CPU before
	// scheduling starts.
	endDecode := trace.Start(r.Context(), "decode")
	var req ScheduleRequest
	sg, err := s.decodeBody(w, r, &req, &req.Graph)
	endDecode()
	if err != nil {
		return
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, `"timeout_ms" must be >= 0`)
		return
	}
	var policy memsched.SimPolicy
	if simulate {
		switch strings.ToLower(strings.TrimSpace(req.Policy)) {
		case "", "rank":
			policy = memsched.SimRankPolicy
		case "eft":
			policy = memsched.SimEFTPolicy
		default:
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("unknown policy %q (known: rank, eft)", req.Policy))
			return
		}
	}
	scheduler := req.Scheduler
	if scheduler == "" {
		scheduler = "memheft"
	}
	if !simulate && !knownScheduler(scheduler) {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("unknown scheduler %q (known: %s)", req.Scheduler, strings.Join(memsched.Schedulers(), ", ")))
		return
	}
	endResolve := trace.Start(r.Context(), "resolve")
	sess, fromCache, ok := s.resolveSession(w, req.GraphID, req.Graph, req.Times, sg)
	endResolve()
	if !ok {
		return
	}
	if n := noteFrom(r.Context()); n != nil {
		n.cacheKnown, n.cacheHit = true, fromCache
	}
	p, ok := platformOf(w, req.Pools)
	if !ok {
		return
	}

	ctx := r.Context()
	timeout := s.cfg.MaxRunTime
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	var res *memsched.Result
	endEngine := trace.Start(ctx, "engine")
	if simulate {
		res, err = sess.Simulate(ctx, p, memsched.WithPolicy(policy), memsched.WithSeed(req.Seed))
	} else {
		opts := []memsched.ScheduleOption{memsched.WithScheduler(scheduler), memsched.WithSeed(req.Seed)}
		if req.Insertion {
			opts = append(opts, memsched.WithInsertion())
		}
		res, err = sess.Schedule(ctx, p, opts...)
	}
	endEngine()
	if err != nil {
		status, code := classify(err)
		msg := err.Error()
		if s.draining.Load() && errors.Is(err, context.Canceled) {
			// The run died because the server is shutting down, not because
			// the work was wrong — tell the client to retry elsewhere.
			status, code = http.StatusServiceUnavailable, CodeDraining
			msg = "server draining for shutdown: " + msg
		}
		writeError(w, status, code, msg)
		return
	}
	s.scheduled.Add(1)
	s.candidateHits.Add(res.Stats.CacheHits)
	s.candidateMiss.Add(res.Stats.CacheMisses)

	// PeakResidency sorts and sweeps the schedule's folded file events,
	// about 2n + 2·(cross edges) of them, on a cold result — real time the
	// engine span does not cover, so it gets its own.
	endFinalize := trace.Start(r.Context(), "finalize")
	resp := ScheduleResponse{
		GraphID:       sess.GraphHash(),
		Scheduler:     res.Stats.Scheduler,
		Makespan:      res.Makespan(),
		Peaks:         res.PeakResidency(),
		PoolTasks:     res.Stats.PoolTasks,
		CacheHits:     res.Stats.CacheHits,
		CacheMisses:   res.Stats.CacheMisses,
		CacheHitRate:  res.Stats.CacheHitRate(),
		Events:        res.Stats.Events,
		WallMicros:    res.Stats.WallTime.Microseconds(),
		SessionCached: fromCache,
		RequestID:     RequestIDFromContext(r.Context()),
	}
	if req.Placements {
		resp.TaskPlacements = placementsOf(res)
	}
	endFinalize()
	if r.URL.Query().Get("trace") == "1" {
		if rec := trace.FromContext(r.Context()); rec != nil {
			resp.Trace = wireSpans(rec)
		}
	}
	// The encode span cannot appear in its own payload; it is recorded
	// for the /debug/traces capture only.
	endEncode := trace.Start(r.Context(), "encode")
	writeJSON(w, http.StatusOK, resp)
	endEncode()
}

func placementsOf(res *memsched.Result) []Placement {
	switch {
	case res.Schedule != nil:
		out := make([]Placement, len(res.Schedule.Tasks))
		for i, t := range res.Schedule.Tasks {
			out[i] = Placement{Task: i, Start: t.Start, Proc: t.Proc}
		}
		return out
	case res.Pools != nil:
		out := make([]Placement, len(res.Pools.Tasks))
		for i, t := range res.Pools.Tasks {
			out[i] = Placement{Task: i, Start: t.Start, Proc: t.Proc}
		}
		return out
	}
	return nil
}

// sweepSpecOf maps a sweep request onto the engine Spec and enforces the
// server-side caps. Only the wire-level shape is checked here — value-level
// spec validation belongs to the engine, whose pre-stream errors surface as
// structured 400s because handleSweep commits the response status lazily.
// Errors have been written to w.
func (s *Server) sweepSpecOf(w http.ResponseWriter, req *SweepRequest) (sweep.Spec, bool) {
	var spec sweep.Spec
	switch {
	case len(req.Alphas) > 0 && len(req.Platforms) > 0:
		writeError(w, http.StatusBadRequest, CodeBadRequest, `set exactly one of "alphas" and "platforms"`)
		return spec, false
	case len(req.Alphas) > 0:
		base, ok := platformOf(w, req.Pools)
		if !ok {
			return spec, false
		}
		spec.Base, spec.Alphas, spec.Peak = base, req.Alphas, req.Peak
	case len(req.Platforms) > 0:
		if len(req.Pools) > 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, `"pools" belongs to an alpha sweep; "platforms" lists full platforms`)
			return spec, false
		}
		spec.Platforms = make([]memsched.Platform, len(req.Platforms))
		for i, specs := range req.Platforms {
			p, ok := platformOf(w, specs)
			if !ok {
				return spec, false
			}
			spec.Platforms[i] = p
		}
		spec.Xs = req.Xs
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, `set "alphas" (with "pools") or "platforms"`)
		return spec, false
	}
	spec.Schedulers = req.Schedulers
	spec.Seeds = req.Seeds
	spec.Replay = req.Replay
	spec.Workers = req.Workers
	if spec.Workers == 0 || spec.Workers > s.cfg.MaxSweepWorkers {
		spec.Workers = s.cfg.MaxSweepWorkers
	}
	if n := spec.NumPoints(); n > s.cfg.MaxSweepPoints {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("sweep expands to %d points, over the server bound of %d", n, s.cfg.MaxSweepPoints))
		return spec, false
	}
	return spec, true
}

// handleSweep streams one batch evaluation as NDJSON: one "point" record
// per sweep point in point-index order, then one trailing "summary" record.
// The 200 status is committed only when the first record is ready, so
// anything the engine rejects before streaming — bad spec values, unknown
// schedulers, engine/session mismatches — still gets a structured 4xx; a
// sweep that fails after streaming began terminates the stream with an
// "error" record instead.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	// withSweepAdmission already holds this sweep's admission claim — one
	// sweep-worker token plus a general in-flight slot — and put it in the
	// request context so the top-up below is accounted against the same
	// claim the middleware releases.
	claim, _ := r.Context().Value(sweepClaimKey).(*sweepClaim)

	endDecode := trace.Start(r.Context(), "decode")
	var req SweepRequest
	sg, err := s.decodeBody(w, r, &req, &req.Graph)
	endDecode()
	if err != nil {
		return
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, `"timeout_ms" must be >= 0`)
		return
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, `"workers" must be >= 0`)
		return
	}
	spec, ok := s.sweepSpecOf(w, &req)
	if !ok {
		return
	}
	endResolve := trace.Start(r.Context(), "resolve")
	sess, fromCache, ok := s.resolveSession(w, req.GraphID, req.Graph, req.Times, sg)
	endResolve()
	if !ok {
		return
	}
	if n := noteFrom(r.Context()); n != nil {
		n.cacheKnown, n.cacheHit = true, fromCache
	}

	timeout := s.cfg.MaxSweepTime
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Widen the claim toward the requested worker count with whatever of
	// the server-wide budget is currently free; the admission token
	// guarantees at least one.
	if claim != nil {
		claim.workers = s.topUpSweepWorkers(claim.workers, spec.Workers)
		spec.Workers = claim.workers
	} else {
		spec.Workers = 1 // mounted without withSweepAdmission (tests): stay safe
	}

	// Long sweeps legitimately outlive the server-wide WriteTimeout;
	// extend this connection's write deadline to the sweep's own budget
	// (best-effort: not every ResponseWriter supports it).
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(timeout + 10*time.Second))

	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	streaming := false
	beginStream := func() {
		if !streaming {
			streaming = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
	}
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	endSweep := trace.Start(ctx, "sweep")
	sum, err := sweep.Stream(ctx, sess, spec, func(pr sweep.PointResult) error {
		s.sweepPoints.Add(1)
		s.candidateHits.Add(pr.Stats.CacheHits)
		s.candidateMiss.Add(pr.Stats.CacheMisses)
		s.sweepReplayed.Add(uint64(pr.ReplayedPlacements))
		if pr.ReplayTruncated {
			s.sweepTruncated.Add(1)
		}
		beginStream()
		if err := enc.Encode(sweepPointRecord(pr)); err != nil {
			return err
		}
		flush()
		return nil
	})
	endSweep()
	if err != nil {
		status, code := classify(err)
		msg := err.Error()
		if s.draining.Load() && errors.Is(err, context.Canceled) {
			// Shutdown cancelled this sweep; make drain distinguishable from
			// a crash on the wire — pre-stream as a 503, mid-stream as a
			// final typed error record instead of a severed connection.
			status, code = http.StatusServiceUnavailable, CodeDraining
			msg = "server draining for shutdown: " + msg
		}
		if !streaming {
			writeError(w, status, code, msg)
			return
		}
		_ = enc.Encode(SweepError{Type: "error", Error: msg, Code: code})
		flush()
		return
	}
	s.scheduled.Add(uint64(sum.Feasible))
	beginStream() // a sweep can deliver zero points only by failing, but commit defensively
	_ = enc.Encode(sweepSummaryRecord(sum, sess.GraphHash(), fromCache))
	flush()
}

// sweepPointRecord maps an engine point result onto its wire record.
func sweepPointRecord(pr sweep.PointResult) SweepPoint {
	return SweepPoint{
		Type:               "point",
		Index:              pr.Index,
		Axis:               pr.Point.Axis,
		X:                  pr.Point.X,
		Alpha:              pr.Point.Alpha,
		Scheduler:          pr.Point.Scheduler,
		Seed:               pr.Point.Seed,
		Feasible:           pr.Feasible,
		Reason:             pr.Reason,
		Makespan:           pr.Makespan,
		Peaks:              pr.Peaks,
		WallMicros:         pr.Stats.WallTime.Microseconds(),
		ReplayedPlacements: pr.ReplayedPlacements,
		ReplayTruncated:    pr.ReplayTruncated,
	}
}

// sweepSummaryRecord maps the engine summary onto its wire record (NaN
// curve entries become nulls: JSON has no NaN).
func sweepSummaryRecord(sum *sweep.Summary, graphID string, cached bool) SweepSummary {
	out := SweepSummary{
		Type:          "summary",
		GraphID:       graphID,
		Points:        sum.Points,
		Feasible:      sum.Feasible,
		BestIndex:     sum.BestIndex,
		BestMakespan:  sum.BestMakespan,
		RefMakespan:   sum.RefMakespan,
		Peak:          sum.Peak,
		Workers:       sum.Workers,
		WallMicros:    sum.WallTime.Microseconds(),
		SessionCached: cached,
	}
	for _, c := range sum.Curves {
		wc := SweepCurve{Scheduler: c.Scheduler, X: c.X, Makespan: make([]*float64, len(c.Makespan))}
		for i, ms := range c.Makespan {
			if !math.IsNaN(ms) {
				v := ms
				wc.Makespan[i] = &v
			}
		}
		out.Curves = append(out.Curves, wc)
	}
	for _, f := range sum.Frontier {
		out.Frontier = append(out.Frontier, SweepFrontier{Scheduler: f.Scheduler, Axis: f.Axis, X: f.X})
	}
	return out
}

func (s *Server) handleSchedulers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, SchedulersResponse{Schedulers: memsched.Schedulers()})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// classify maps a scheduling error onto an HTTP status and error code. The
// inputs were validated before the run, so anything left is either a model
// rejection (does not fit, deadlocks, engine/platform mismatch) or a
// timeout.
func classify(err error) (status int, code string) {
	switch {
	case errors.Is(err, memsched.ErrMemoryBound):
		return http.StatusUnprocessableEntity, CodeMemoryBound
	case errors.Is(err, memsched.ErrSimStuck):
		return http.StatusUnprocessableEntity, CodeSimStuck
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, CodeTimeout
	default:
		return http.StatusBadRequest, CodeBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	// The request id was stamped on the response headers before dispatch
	// (see Handler), so every error body can echo it without threading it
	// through each call site.
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code, RequestID: w.Header().Get(RequestIDHeader)})
}
