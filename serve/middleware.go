package serve

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Middleware is one link of the server's request-processing chain: it
// wraps a handler with one orthogonal concern (admission, shedding, rate
// limiting, fault injection, ...). Links compose with Chain.
type Middleware func(http.Handler) http.Handler

// Chain composes links into one middleware. Chain(a, b, c)(h) serves a
// request through a first, then b, then c, then h — the argument order is
// the request's path through the stack, outermost first.
func Chain(links ...Middleware) Middleware {
	return func(next http.Handler) http.Handler {
		for i := len(links) - 1; i >= 0; i-- {
			next = links[i](next)
		}
		return next
	}
}

// The server's chains, outermost first (metrics instrumentation wraps the
// whole mux in Handler and is not repeated here):
//
//	/v1/graphs, /v1/schedule, /v1/simulate:
//	    chaos → rate limit → load shed → admission → body cap → handler
//	/v1/sweep:
//	    chaos → rate limit → load shed → sweep admission → body cap → handler
//
// Chaos sits outermost so injected faults model the network: they cost no
// token, no slot, and are observed by the metrics layer like any other
// response. The rate limiter is the cheap front door; the shedder reads
// the admission queue and refuses work the semaphore would only delay;
// admission is the expensive gate. GET endpoints (/healthz, /metrics,
// /v1/stats, /v1/schedulers) bypass everything but metrics so probes and
// scrapes stay reliable under both overload and injected chaos.

// tokenBucket is a mutex-guarded token bucket: capacity burst, refilled
// at rate tokens/second. The clock is injectable for tests.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if burst <= 0 {
		burst = int(math.Ceil(rate))
		if burst < 1 {
			burst = 1
		}
	}
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), now: time.Now}
}

// take consumes one token if one is available; otherwise it reports how
// long until one accrues.
func (tb *tokenBucket) take() (ok bool, retryAfter time.Duration) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.now()
	if !tb.last.IsZero() {
		tb.tokens = math.Min(tb.burst, tb.tokens+now.Sub(tb.last).Seconds()*tb.rate)
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return true, 0
	}
	return false, time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
}

// writeRetryAfter sets the Retry-After header for a 429/503, rounded up
// to whole seconds (the header's granularity), minimum 1.
func writeRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// withRateLimit is the token-bucket front door (Config.RateLimit). A
// request with no token is refused with a structured 429 and a
// Retry-After hint sized to the bucket's refill time — the earliest
// moment a retry could succeed.
func (s *Server) withRateLimit(next http.Handler) http.Handler {
	if s.limiter == nil {
		return next
	}
	return rateLimit(s.limiter, s.cfg.RateLimit, func(r *http.Request) {
		s.rateLimited.Add(1)
		s.logRefusal(r.Context(), "rate limited", slog.Float64("rate", s.cfg.RateLimit))
	})(next)
}

// rateLimit is the shared token-bucket link behind both the Server's
// withRateLimit and the standalone RateLimitMiddleware. onLimited sees
// the refused request, so hooks can count and log with its context.
func rateLimit(tb *tokenBucket, rate float64, onLimited func(*http.Request)) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ok, wait := tb.take()
			if !ok {
				if onLimited != nil {
					onLimited(r)
				}
				writeRetryAfter(w, wait)
				writeError(w, http.StatusTooManyRequests, CodeRateLimited,
					fmt.Sprintf("rate limit exceeded (%g req/s)", rate))
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// RateLimitMiddleware is the Server's token-bucket front door as a
// standalone link, for composing the same chain in front of a handler
// that is not a Server — the cluster router. rate is requests/second
// shared across all clients, burst the bucket depth (<= 0 means
// ceil(rate)); a refused request gets the identical structured 429
// (code "rate_limited") + Retry-After. onLimited, when non-nil, is
// invoked once per refused request (metrics hook).
func RateLimitMiddleware(rate float64, burst int, onLimited func()) Middleware {
	var hook func(*http.Request)
	if onLimited != nil {
		hook = func(*http.Request) { onLimited() }
	}
	return rateLimit(newTokenBucket(rate, burst), rate, hook)
}

// ConcurrencyLimitMiddleware bounds concurrently served requests at max,
// shedding excess immediately with the structured 429 (code "shed") +
// Retry-After instead of queueing — the right shape for an IO-bound
// router, where a queue only adds latency in front of replicas that have
// queues of their own. inFlight, when non-nil, is maintained as the
// current concurrency gauge (metrics hook); onShed, when non-nil, is
// invoked once per refused request.
func ConcurrencyLimitMiddleware(max int64, inFlight *atomic.Int64, onShed func()) Middleware {
	if inFlight == nil {
		inFlight = new(atomic.Int64)
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n := inFlight.Add(1); n > max {
				inFlight.Add(-1)
				if onShed != nil {
					onShed()
				}
				writeRetryAfter(w, time.Second)
				writeError(w, http.StatusTooManyRequests, CodeShed,
					fmt.Sprintf("server overloaded: %d requests already in flight", max))
				return
			}
			defer inFlight.Add(-1)
			next.ServeHTTP(w, r)
		})
	}
}

// BodyCapMiddleware bounds request bodies at maxBytes as a standalone
// link (see withBodyCap); oversize payloads surface as a structured 413
// at the first read past the cap.
func BodyCapMiddleware(maxBytes int64) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
			next.ServeHTTP(w, r)
		})
	}
}

// maxPresize bounds the buffer ReadRequestBody allocates before any byte
// arrives, so a client that declares a large Content-Length and sends
// little cannot make a tier allocate more up front.
const maxPresize = 1 << 20

// ReadRequestBody reads r.Body whole into one buffer. The buffer starts at
// the declared Content-Length when that is positive and at most limit (the
// body cap), never above 1 MiB, plus bytes.MinRead of headroom so the final
// read that meets EOF does not grow it; beyond that it grows as bytes
// arrive. On a read error — *http.MaxBytesError past a BodyCapMiddleware
// cap, a client gone mid-body — it returns the bytes read so far with the
// error.
func ReadRequestBody(r *http.Request, limit int64) ([]byte, error) {
	n := r.ContentLength
	if n <= 0 || n > limit {
		n = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(n, maxPresize)+bytes.MinRead))
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// withShed is the queue-depth-aware load shedder (Config.ShedQueueDepth):
// when every in-flight slot is busy AND the admission queue is already at
// its bound, waiting can only add latency for everyone, so the request is
// refused immediately with a structured 429 + Retry-After instead of
// queueing. Shed requests are safe to retry — nothing was executed.
func (s *Server) withShed(next http.Handler) http.Handler {
	if s.cfg.ShedQueueDepth <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.inFlight.Load() >= int64(s.cfg.MaxInFlight) && s.waiting.Load() >= int64(s.cfg.ShedQueueDepth) {
			s.shed.Add(1)
			s.logRefusal(r.Context(), "load shed",
				slog.Int("max_in_flight", s.cfg.MaxInFlight),
				slog.Int("queue_depth", s.cfg.ShedQueueDepth))
			writeRetryAfter(w, time.Second)
			writeError(w, http.StatusTooManyRequests, CodeShed,
				fmt.Sprintf("server overloaded: all %d slots busy and %d requests already queued",
					s.cfg.MaxInFlight, s.cfg.ShedQueueDepth))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withAdmission is the in-flight semaphore (Config.MaxInFlight): it
// bounds the requests concurrently doing CPU-bound work. Excess requests
// wait for a slot until their context ends.
func (s *Server) withAdmission(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endAdmission := trace.Start(r.Context(), "admission")
		err := s.acquire(r.Context())
		endAdmission()
		if err != nil {
			writeError(w, http.StatusRequestTimeout, CodeTimeout, "request cancelled while waiting for an in-flight slot")
			return
		}
		defer s.release()
		next.ServeHTTP(w, r)
	})
}

// sweepClaim carries a sweep's claimed worker-token count from the
// admission link to the handler, which may widen the claim (top-up) once
// it knows the request's worker ask; the link releases the final count.
type sweepClaim struct {
	workers int
}

type ctxKey int

const sweepClaimKey ctxKey = iota

// withSweepAdmission is the sweep path's two-stage gate. Admission order
// matters: a sweep first queues on the sweep-worker budget (holding
// nothing else), and only then takes a general in-flight slot. A burst of
// batch requests therefore waits on sweep capacity without camping on the
// slots /v1/schedule needs — no head-of-line blocking of the cheap path.
func (s *Server) withSweepAdmission(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endAdmission := trace.Start(r.Context(), "admission")
		if err := s.acquireSweepToken(r.Context()); err != nil {
			endAdmission()
			writeError(w, http.StatusRequestTimeout, CodeTimeout, "request cancelled while waiting for sweep capacity")
			return
		}
		claim := &sweepClaim{workers: 1}
		defer func() { s.releaseSweepWorkers(claim.workers) }()
		err := s.acquire(r.Context())
		endAdmission()
		if err != nil {
			writeError(w, http.StatusRequestTimeout, CodeTimeout, "request cancelled while waiting for an in-flight slot")
			return
		}
		defer s.release()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), sweepClaimKey, claim)))
	})
}

// withBodyCap bounds the request body (Config.MaxRequestBytes); a larger
// payload surfaces as *http.MaxBytesError from the decode, which
// decodeBody classifies as a structured 413.
func (s *Server) withBodyCap(next http.Handler) http.Handler {
	return BodyCapMiddleware(s.cfg.MaxRequestBytes)(next)
}
