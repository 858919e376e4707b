package serve_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	memsched "repro"
	"repro/serve"
)

// TestRateLimit429 exhausts the token bucket and checks the refusal is the
// documented contract: 429, code "rate_limited", Retry-After parsed into
// the typed error, and the server counter exported.
func TestRateLimit429(t *testing.T) {
	client, srv := newTestServer(t, serve.Config{RateLimit: 0.5, RateBurst: 2})
	ctx := context.Background()

	raw, _ := memsched.PaperExample().MarshalJSON()
	req := serve.ScheduleRequest{Graph: raw, Pools: cap4()}
	for i := 0; i < 2; i++ {
		if _, err := client.Schedule(ctx, req); err != nil {
			t.Fatalf("in-burst request %d: %v", i, err)
		}
	}
	_, err := client.Schedule(ctx, req)
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("over-burst request: want *APIError, got %v", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != serve.CodeRateLimited {
		t.Fatalf("refusal = %d %q, want 429 %q", apiErr.Status, apiErr.Code, serve.CodeRateLimited)
	}
	if apiErr.RetryAfter < time.Second {
		t.Fatalf("Retry-After hint = %v, want >= 1s", apiErr.RetryAfter)
	}
	if !serve.Retryable(apiErr) {
		t.Fatal("a rate-limit refusal must be retryable")
	}
	if st := srv.Stats(); st.RateLimited != 1 {
		t.Fatalf("rate_limited counter = %d, want 1", st.RateLimited)
	}

	// GET endpoints bypass the limiter: probes stay reliable while the
	// bucket is empty.
	if err := client.Health(ctx); err != nil {
		t.Fatalf("healthz rate-limited: %v", err)
	}
	if _, err := client.Stats(ctx); err != nil {
		t.Fatalf("stats rate-limited: %v", err)
	}
}

// TestLoadShed429 saturates a 1-slot server, fills the admission queue, and
// checks the next request is refused immediately with code "shed" instead
// of queueing behind work it could only delay.
func TestLoadShed429(t *testing.T) {
	client, srv := newTestServer(t, serve.Config{
		MaxInFlight:     1,
		ShedQueueDepth:  1,
		MaxRequestBytes: 64 << 20,
	})

	params := memsched.LargeRandParams()
	params.Size = 20000
	g, err := memsched.GenerateRandom(params, 5)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := g.MarshalJSON()

	// Occupy the only slot with a long sweep, then park one schedule in
	// the admission queue.
	slowCtx, stopSlow := context.WithCancel(context.Background())
	defer stopSlow()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = client.Sweep(slowCtx, serve.SweepRequest{
			Graph:      raw,
			Pools:      []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
			Alphas:     []float64{0.6, 0.7, 0.8, 0.9, 1.0},
			Schedulers: []string{"memminmin", "memheft"},
			Workers:    1,
		}, nil)
	}()
	waitFor(t, func() bool { return srv.Stats().InFlight >= 1 })
	paper, _ := memsched.PaperExample().MarshalJSON()
	go func() {
		defer wg.Done()
		_, _ = client.Schedule(slowCtx, serve.ScheduleRequest{Graph: paper, Pools: cap4()})
	}()
	waitFor(t, func() bool { return srv.Stats().QueueDepth >= 1 })

	_, err = client.Schedule(context.Background(), serve.ScheduleRequest{Graph: paper, Pools: cap4()})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != serve.CodeShed {
		t.Fatalf("want 429 %q, got %v", serve.CodeShed, err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("shed refusal missing Retry-After hint: %+v", apiErr)
	}
	if st := srv.Stats(); st.Shed < 1 {
		t.Fatalf("shed counter = %d, want >= 1", st.Shed)
	}

	stopSlow()
	wg.Wait()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 15s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosErrorFaultIsStructured503: an injected error fault is a real
// structured response — 503, code "unavailable", Retry-After — counted on
// the server and retryable by taxonomy.
func TestChaosErrorFaultIsStructured503(t *testing.T) {
	client, srv := newTestServer(t, serve.Config{
		ChaosRate:   1,
		ChaosSeed:   1,
		ChaosFaults: []string{serve.FaultError},
	})
	raw, _ := memsched.PaperExample().MarshalJSON()
	_, err := client.Schedule(context.Background(), serve.ScheduleRequest{Graph: raw, Pools: cap4()})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != serve.CodeUnavailable {
		t.Fatalf("want 503 %q, got %v", serve.CodeUnavailable, err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("injected 503 missing Retry-After: %+v", apiErr)
	}
	if !serve.Retryable(apiErr) {
		t.Fatal("an injected 503 must be retryable")
	}
	if st := srv.Stats(); st.ChaosErrors != 1 {
		t.Fatalf("chaos error counter = %d, want 1", st.ChaosErrors)
	}
	// GETs bypass chaos: stats answered above, and healthz answers here.
	if err := client.Health(context.Background()); err != nil {
		t.Fatalf("healthz faulted: %v", err)
	}
}

// TestChaosTruncationSurfacesAsTruncatedStream: with truncation forced on
// every request, a plain client's sweep dies mid-stream and surfaces as
// the retryable ErrStreamTruncated.
func TestChaosTruncationSurfacesAsTruncatedStream(t *testing.T) {
	client, srv := newTestServer(t, serve.Config{
		ChaosRate:   1,
		ChaosSeed:   3,
		ChaosFaults: []string{serve.FaultTruncate},
	})
	raw, _ := memsched.PaperExample().MarshalJSON()
	_, err := client.Sweep(context.Background(), serve.SweepRequest{
		Graph:      raw,
		Pools:      cap4(),
		Alphas:     sweepAlphas(16),
		Schedulers: []string{"memheft", "memminmin"},
	}, nil)
	if !errors.Is(err, serve.ErrStreamTruncated) {
		t.Fatalf("want ErrStreamTruncated, got %v", err)
	}
	if !serve.Retryable(err) {
		t.Fatal("a truncated stream must be retryable")
	}
	if st := srv.Stats(); st.ChaosTruncations != 1 {
		t.Fatalf("truncation counter = %d, want 1", st.ChaosTruncations)
	}
}

// TestClientRetryUnderChaos is the end-to-end resilience loop: a seeded
// chaos server injecting all three fault kinds at rate 0.4, a client with
// a generous retry budget — every call must land, sweep callbacks must see
// every point index exactly once (resume, not replay), and the server must
// have actually injected faults (the run proved something).
func TestClientRetryUnderChaos(t *testing.T) {
	srv := serve.NewServer(serve.Config{
		ChaosRate:       0.4,
		ChaosSeed:       11,
		ChaosMaxLatency: 2 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := serve.NewClient(ts.URL,
		serve.WithHTTPClient(ts.Client()),
		serve.WithRetry(serve.RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}),
	)
	ctx := context.Background()
	raw, _ := memsched.PaperExample().MarshalJSON()

	for i := 0; i < 3; i++ {
		if _, err := client.Schedule(ctx, serve.ScheduleRequest{Graph: raw, Pools: cap4()}); err != nil {
			t.Fatalf("schedule %d under chaos: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		next := 0
		sum, err := client.Sweep(ctx, serve.SweepRequest{
			Graph:      raw,
			Pools:      cap4(),
			Alphas:     sweepAlphas(8),
			Schedulers: []string{"memheft", "memminmin"},
		}, func(pt serve.SweepPoint) error {
			if pt.Index != next {
				return fmt.Errorf("point index %d delivered, want %d (duplicate or gap across retries)", pt.Index, next)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("sweep %d under chaos: %v", i, err)
		}
		if sum.Points != 16 || next != 16 {
			t.Fatalf("sweep %d: summary %d points, callback saw %d, want 16", i, sum.Points, next)
		}
	}

	st := srv.Stats()
	if st.ChaosLatency+st.ChaosErrors+st.ChaosTruncations == 0 {
		t.Fatal("chaos at rate 0.4 injected nothing: the run proved nothing")
	}
	m := client.Metrics()
	if m.Retries == 0 {
		t.Fatal("client retried nothing under rate-0.4 chaos")
	}
	if st.Retried == 0 {
		t.Fatal("server saw no X-Retry-Attempt marks despite client retries")
	}
}

// TestSweepResumeSkipsReplayedPoints pins the resume contract against a
// scripted flaky server: attempt one dies mid-record after point 1,
// attempt two replays the full stream — the callback must still see each
// index exactly once.
func TestSweepResumeSkipsReplayedPoints(t *testing.T) {
	point := func(i int) string {
		return fmt.Sprintf(`{"type":"point","index":%d,"scheduler":"memheft","feasible":true,"makespan":%d}`, i, 10+i)
	}
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := requests.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		if n == 1 {
			if r.Header.Get(serve.RetryAttemptHeader) != "" {
				t.Error("first attempt carried a retry mark")
			}
			// Two whole points, then die mid-record.
			fmt.Fprintln(w, point(0))
			fmt.Fprintln(w, point(1))
			fmt.Fprint(w, `{"type":"poi`)
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler) // sever the connection
		}
		if r.Header.Get(serve.RetryAttemptHeader) == "" {
			t.Error("resumed attempt not marked with " + serve.RetryAttemptHeader)
		}
		for i := 0; i < 4; i++ {
			fmt.Fprintln(w, point(i))
		}
		fmt.Fprintln(w, `{"type":"summary","points":4,"feasible":4}`)
	}))
	t.Cleanup(ts.Close)

	client := serve.NewClient(ts.URL,
		serve.WithHTTPClient(ts.Client()),
		serve.WithRetry(serve.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}),
	)
	var seen []int
	sum, err := client.Sweep(context.Background(), serve.SweepRequest{}, func(pt serve.SweepPoint) error {
		seen = append(seen, pt.Index)
		return nil
	})
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if sum.Points != 4 {
		t.Fatalf("summary points = %d, want 4", sum.Points)
	}
	want := []int{0, 1, 2, 3}
	if len(seen) != len(want) {
		t.Fatalf("callback saw %v, want %v (exactly once each)", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("callback saw %v, want %v", seen, want)
		}
	}
	if got := requests.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
}

// TestClientRetriesTransientAndStopsOnTerminal: a scripted server checks
// both halves of the taxonomy — transient 503s are retried to success,
// terminal 422s are returned on the first attempt.
func TestClientRetriesTransientAndStopsOnTerminal(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/schedulers":
			if calls.Add(1) <= 2 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, `{"error":"transient","code":"unavailable"}`)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"schedulers":["memheft"]}`)
		case "/v1/schedule":
			calls.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			fmt.Fprintln(w, `{"error":"does not fit","code":"memory_bound"}`)
		}
	}))
	t.Cleanup(ts.Close)

	client := serve.NewClient(ts.URL,
		serve.WithHTTPClient(ts.Client()),
		serve.WithRetry(serve.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}),
	)
	names, err := client.Schedulers(context.Background())
	if err != nil || len(names) != 1 {
		t.Fatalf("retried call = (%v, %v), want one scheduler", names, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("transient path took %d attempts, want 3", got)
	}
	if m := client.Metrics(); m.Attempts != 3 || m.Retries != 2 {
		t.Fatalf("client metrics = %+v, want 3 attempts / 2 retries", m)
	}

	calls.Store(0)
	_, err = client.Schedule(context.Background(), serve.ScheduleRequest{})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != serve.CodeMemoryBound {
		t.Fatalf("want terminal 422, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("terminal 422 was attempted %d times, want 1 (no retry)", got)
	}
}

// TestClientBreakerOpensAndRecovers drives the breaker through its full
// cycle against a scripted server: consecutive failures open it, open
// calls never reach the network, and a successful probe after the
// cooldown closes it again.
func TestClientBreakerOpensAndRecovers(t *testing.T) {
	var failing atomic.Bool
	var hits atomic.Int32
	failing.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if failing.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"down","code":"unavailable"}`)
			return
		}
		fmt.Fprintln(w, `{"schedulers":["memheft"]}`)
	}))
	t.Cleanup(ts.Close)

	breaker := serve.NewBreaker(3, 50*time.Millisecond)
	client := serve.NewClient(ts.URL,
		serve.WithHTTPClient(ts.Client()),
		serve.WithRetry(serve.RetryPolicy{MaxAttempts: 1}), // isolate the breaker from the retry loop
		serve.WithBreaker(breaker),
	)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := client.Schedulers(ctx); err == nil {
			t.Fatalf("call %d against a failing server succeeded", i)
		}
	}
	if st := breaker.State(); st != serve.BreakerOpen {
		t.Fatalf("breaker after 3 failures = %v, want open", st)
	}
	netHits := hits.Load()
	if _, err := client.Schedulers(ctx); !errors.Is(err, serve.ErrBreakerOpen) {
		t.Fatalf("open-breaker call = %v, want ErrBreakerOpen", err)
	}
	if hits.Load() != netHits {
		t.Fatal("open-breaker call reached the network")
	}
	if serve.Retryable(serve.ErrBreakerOpen) {
		t.Fatal("ErrBreakerOpen must be terminal")
	}

	failing.Store(false)
	time.Sleep(60 * time.Millisecond) // past the cooldown: next call is the probe
	if _, err := client.Schedulers(ctx); err != nil {
		t.Fatalf("probe call failed: %v", err)
	}
	if st := breaker.State(); st != serve.BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", st)
	}
	if m := client.Metrics(); m.BreakerTrips != 1 {
		t.Fatalf("breaker trips = %d, want 1", m.BreakerTrips)
	}
}

// TestShutdownDrainMarksSweepStream is the drain-vs-crash regression test:
// a sweep stream cut down by graceful shutdown must end with a typed
// {"type":"error","code":"draining"} record, not a severed connection.
func TestShutdownDrainMarksSweepStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := serve.NewServer(serve.Config{
		Addr:            "127.0.0.1:0",
		ShutdownTimeout: 2 * time.Second, // run contexts are cut at half of this
		MaxRequestBytes: 64 << 20,
	})
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx) }()
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("listener did not bind")
	}
	client := serve.NewClient("http://" + addr)

	params := memsched.LargeRandParams()
	params.Size = 30000
	g, err := memsched.GenerateRandom(params, 5)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := g.MarshalJSON()

	firstPoint := make(chan struct{})
	var once sync.Once
	sweepErr := make(chan error, 1)
	go func() {
		_, err := client.Sweep(context.Background(), serve.SweepRequest{
			Graph:      raw,
			Pools:      []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
			Alphas:     sweepAlphas(16),
			Schedulers: []string{"memminmin", "memheft"},
			// 128 points, run one after another: the stream's tail after
			// its first point (~2 s on a 2-vCPU VM) outlives the 1 s
			// drain budget with room to spare.
			Seeds:   []int64{1, 2, 3, 4},
			Workers: 1,
		}, func(serve.SweepPoint) error {
			once.Do(func() { close(firstPoint) })
			return nil
		})
		sweepErr <- err
	}()

	select {
	case <-firstPoint:
	case err := <-sweepErr:
		t.Fatalf("sweep ended before streaming: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("sweep never started streaming")
	}
	cancel() // begin graceful shutdown while the stream is live

	select {
	case err := <-sweepErr:
		var apiErr *serve.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("drained stream returned %v, want a typed error record", err)
		}
		if apiErr.Code != serve.CodeDraining {
			t.Fatalf("drain record code = %q, want %q", apiErr.Code, serve.CodeDraining)
		}
		if !strings.Contains(apiErr.Message, "draining") {
			t.Fatalf("drain record message %q does not say draining", apiErr.Message)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drained sweep never returned")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}

// TestMetricsExportResilienceCounters: the new counters and gauges are on
// /metrics in the documented shape.
func TestMetricsExportResilienceCounters(t *testing.T) {
	srv := serve.NewServer(serve.Config{
		ChaosRate:   1,
		ChaosSeed:   1,
		ChaosFaults: []string{serve.FaultError},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := serve.NewClient(ts.URL, serve.WithHTTPClient(ts.Client()))

	raw, _ := memsched.PaperExample().MarshalJSON()
	if _, err := client.Schedule(context.Background(), serve.ScheduleRequest{Graph: raw, Pools: cap4()}); err == nil {
		t.Fatal("expected the injected 503")
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(serve.RetryAttemptHeader, "1")
	if resp, err := ts.Client().Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`memschedd_chaos_faults_total{kind="error"} 1`,
		`memschedd_chaos_faults_total{kind="latency"} 0`,
		`memschedd_chaos_faults_total{kind="truncate"} 0`,
		"memschedd_chaos_injected_total 1",
		"memschedd_retried_requests_total 1",
		"memschedd_shed_total 0",
		"memschedd_rate_limited_total 0",
		"memschedd_queue_depth 0",
		"memschedd_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestDrainClassificationIsRetryable: a pre-stream draining 503 is
// retryable (another replica can serve it), while an in-stream draining
// record is terminal for the call — the caller decides where to resume.
func TestDrainClassificationIsRetryable(t *testing.T) {
	err := &serve.APIError{Status: http.StatusServiceUnavailable, Code: serve.CodeDraining}
	if !serve.Retryable(err) {
		t.Fatal("a pre-stream draining 503 must be retryable")
	}
	inStream := &serve.APIError{Status: http.StatusOK, Code: serve.CodeDraining}
	if serve.Retryable(inStream) {
		t.Fatal("an in-stream draining record must be terminal for this call")
	}
}
