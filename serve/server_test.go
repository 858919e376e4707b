package serve_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	memsched "repro"
	"repro/serve"
)

// newTestServer mounts a Server handler on an httptest server and returns a
// typed client plus the Server for counter inspection.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Client, *serve.Server) {
	t.Helper()
	srv := serve.NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return serve.NewClient(ts.URL, serve.WithHTTPClient(ts.Client())), srv
}

func cap4() []serve.PoolSpec {
	four := int64(4)
	return []serve.PoolSpec{{Procs: 1, Capacity: &four}, {Procs: 1, Capacity: &four}}
}

func TestRegisterThenScheduleByID(t *testing.T) {
	client, srv := newTestServer(t, serve.Config{})
	ctx := context.Background()

	g := memsched.PaperExample()
	reg, err := client.RegisterGraph(ctx, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reg.ID != memsched.GraphHash(g) {
		t.Fatalf("register id %q != canonical hash %q", reg.ID, memsched.GraphHash(g))
	}
	if reg.Tasks != g.NumTasks() || reg.Edges != g.NumEdges() || reg.Cached {
		t.Fatalf("unexpected register response: %+v", reg)
	}

	// Re-registering the same content reports the warm session.
	reg2, err := client.RegisterGraph(ctx, memsched.PaperExample(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reg2.Cached || reg2.ID != reg.ID {
		t.Fatalf("identical graph not deduplicated: %+v", reg2)
	}

	res, err := client.Schedule(ctx, serve.ScheduleRequest{
		GraphID: reg.ID,
		Pools:   cap4(),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's example under (1,1,4,4) with MemHEFT: makespan 10,
	// peaks (4,4) — same as ExampleSession_Schedule.
	if res.Makespan != 10 {
		t.Fatalf("makespan = %g, want 10", res.Makespan)
	}
	if len(res.Peaks) != 2 || res.Peaks[0] != 4 || res.Peaks[1] != 4 {
		t.Fatalf("peaks = %v, want [4 4]", res.Peaks)
	}
	if !res.SessionCached {
		t.Fatal("schedule by id should have hit the session cache")
	}
	if res.Scheduler != "memheft" {
		t.Fatalf("scheduler = %q, want memheft", res.Scheduler)
	}
	if st := srv.Stats(); st.SessionHits != 1 || st.Scheduled != 1 {
		t.Fatalf("stats after one by-id run: %+v", st)
	}
}

func TestScheduleInlineWarmsCache(t *testing.T) {
	client, srv := newTestServer(t, serve.Config{})
	ctx := context.Background()

	req := serve.ScheduleRequest{Pools: cap4(), Seed: 1, Placements: true}
	raw, err := memsched.PaperExample().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	req.Graph = raw

	first, err := client.Schedule(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.SessionCached {
		t.Fatal("first inline schedule cannot be a cache hit")
	}
	if len(first.TaskPlacements) != 4 {
		t.Fatalf("placements = %v, want 4 entries", first.TaskPlacements)
	}
	second, err := client.Schedule(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.SessionCached {
		t.Fatal("second inline schedule of the same graph should hit the cache")
	}
	if second.Makespan != first.Makespan {
		t.Fatalf("warm run changed the schedule: %g vs %g", second.Makespan, first.Makespan)
	}
	st := srv.Stats()
	if st.SessionHits != 1 || st.SessionMisses != 1 {
		t.Fatalf("hit/miss = %d/%d, want 1/1", st.SessionHits, st.SessionMisses)
	}
	if st.CandidateHits+st.CandidateMisses == 0 {
		t.Fatal("aggregated candidate-cache counters should be nonzero after two runs")
	}
}

func TestScheduleMatchesDirectSession(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{})
	ctx := context.Background()

	g, err := memsched.GenerateRandom(memsched.SmallRandParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := memsched.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	p := memsched.NewDualPlatform(2, 2, memsched.Unlimited, memsched.Unlimited)
	for _, name := range memsched.Schedulers() {
		if name == "memheft-insertion" {
			continue // selected via the insertion flag, not by name
		}
		want, err := sess.Schedule(ctx, p, memsched.WithScheduler(name), memsched.WithSeed(3))
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		raw, _ := g.MarshalJSON()
		got, err := client.Schedule(ctx, serve.ScheduleRequest{
			Graph:     raw,
			Pools:     []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
			Scheduler: name,
			Seed:      3,
		})
		if err != nil {
			t.Fatalf("%s via server: %v", name, err)
		}
		if got.Makespan != want.Makespan() {
			t.Fatalf("%s: server makespan %g != direct %g", name, got.Makespan, want.Makespan())
		}
	}
}

func TestKPoolTimesPath(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{})
	ctx := context.Background()

	g := memsched.NewGraph()
	a := g.AddTask("a", 0, 0)
	b := g.AddTask("b", 0, 0)
	g.MustAddEdge(a, b, 1, 1)
	times := [][]float64{{1, 2, 3}, {3, 2, 1}}

	reg, err := client.RegisterGraph(ctx, g, times)
	if err != nil {
		t.Fatal(err)
	}
	// The times matrix is part of the id: the same graph without times
	// registers separately.
	regPlain, err := client.RegisterGraph(ctx, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reg.ID == regPlain.ID {
		t.Fatal("pool-time matrix not reflected in graph id")
	}

	res, err := client.Schedule(ctx, serve.ScheduleRequest{
		GraphID: reg.ID,
		Pools:   []serve.PoolSpec{{Procs: 1}, {Procs: 1}, {Procs: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || len(res.PoolTasks) != 3 {
		t.Fatalf("k-pool response: makespan %g, pool tasks %v", res.Makespan, res.PoolTasks)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{})
	ctx := context.Background()
	raw, _ := memsched.PaperExample().MarshalJSON()

	for _, policy := range []string{"", "rank", "eft"} {
		res, err := client.Simulate(ctx, serve.ScheduleRequest{
			Graph:  raw,
			Pools:  cap4(),
			Policy: policy,
		})
		if err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		if res.Makespan <= 0 || res.Events == 0 {
			t.Fatalf("policy %q: makespan %g, events %d", policy, res.Makespan, res.Events)
		}
	}
}

func TestSchedulersEndpoint(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{})
	names, err := client.Schedulers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := memsched.Schedulers()
	if len(names) != len(want) {
		t.Fatalf("schedulers = %v, want %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("schedulers = %v, want %v", names, want)
		}
	}
}

func TestMemoryBoundIs422(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{})
	raw, _ := memsched.PaperExample().MarshalJSON()
	two := int64(2)
	_, err := client.Schedule(context.Background(), serve.ScheduleRequest{
		Graph: raw,
		Pools: []serve.PoolSpec{{Procs: 1, Capacity: &two}, {Procs: 1, Capacity: &two}},
	})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity || apiErr.Code != serve.CodeMemoryBound {
		t.Fatalf("want 422 memory_bound, got %v", err)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	client, srv := newTestServer(t, serve.Config{CacheSize: 2})
	ctx := context.Background()

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		g, err := memsched.GenerateRandom(memsched.SmallRandParams(), seed)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := client.RegisterGraph(ctx, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, reg.ID)
	}
	if st := srv.Stats(); st.SessionsCached != 2 {
		t.Fatalf("cache population = %d, want bound 2", st.SessionsCached)
	}
	// The first registration is the LRU victim: scheduling it now is 404.
	_, err := client.Schedule(ctx, serve.ScheduleRequest{GraphID: ids[0], Pools: cap4()})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != serve.CodeNotFound {
		t.Fatalf("evicted graph should 404, got %v", err)
	}
	// The survivors still schedule.
	for _, id := range ids[1:] {
		if _, err := client.Schedule(ctx, serve.ScheduleRequest{
			GraphID: id,
			Pools:   []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
		}); err != nil {
			t.Fatalf("surviving graph %s: %v", id, err)
		}
	}
}

// TestConcurrentClients exercises the full request path from many goroutines
// (run under -race in CI): mixed by-id and inline requests over a small
// graph working set must all succeed, end with a high session-cache hit
// rate, and leave the in-flight gauge at zero.
func TestConcurrentClients(t *testing.T) {
	client, srv := newTestServer(t, serve.Config{MaxInFlight: 4})
	ctx := context.Background()

	const nGraphs, nClients, nRequests = 4, 8, 25
	ids := make([]string, nGraphs)
	raws := make([][]byte, nGraphs)
	for i := range ids {
		g, err := memsched.GenerateRandom(memsched.SmallRandParams(), int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		raws[i], _ = g.MarshalJSON()
		reg, err := client.RegisterGraph(ctx, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = reg.ID
	}

	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < nRequests; i++ {
				req := serve.ScheduleRequest{
					Pools:     []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
					Seed:      int64(c),
					Scheduler: []string{"memheft", "memminmin", "heft"}[i%3],
				}
				if i%2 == 0 {
					req.GraphID = ids[(c+i)%nGraphs]
				} else {
					req.Graph = raws[(c+i)%nGraphs]
				}
				if _, err := client.Schedule(ctx, req); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight gauge = %d after drain, want 0", st.InFlight)
	}
	if st.Scheduled != nClients*nRequests {
		t.Fatalf("scheduled = %d, want %d", st.Scheduled, nClients*nRequests)
	}
	if rate := st.SessionHitRate(); rate < 0.9 {
		t.Fatalf("session-cache hit rate %.2f, want >= 0.9", rate)
	}
	// Each inline request re-sends the bytes its graph was registered
	// with, so only the registrations rebuild.
	if st.InlineDigestMisses != nGraphs || st.InlineDigestHits != nClients*(nRequests/2) {
		t.Fatalf("inline digest hits/misses = %d/%d, want %d/%d",
			st.InlineDigestHits, st.InlineDigestMisses, nClients*(nRequests/2), nGraphs)
	}
}

// TestGracefulShutdown runs the real lifecycle (listener, serve, ctx
// cancellation, drain) and checks the server goroutines are gone afterwards.
func TestGracefulShutdown(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	srv := serve.NewServer(serve.Config{Addr: "127.0.0.1:0", ShutdownTimeout: 5 * time.Second})
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx) }()
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("listener did not bind")
	}

	tr := &http.Transport{}
	client := serve.NewClient("http://"+addr, serve.WithHTTPClient(&http.Client{Transport: tr}))
	raw, _ := memsched.PaperExample().MarshalJSON()
	for i := 0; i < 3; i++ {
		if _, err := client.Schedule(context.Background(), serve.ScheduleRequest{Graph: raw, Pools: cap4()}); err != nil {
			t.Fatal(err)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
	if err := client.Health(context.Background()); err == nil {
		t.Fatal("server still answering after shutdown")
	}
	tr.CloseIdleConnections()

	// The serve goroutines must be gone; allow a little slack for the
	// runtime's own background goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestRequestTimeoutIs408(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{MaxRequestBytes: 64 << 20})
	// A 20000-task DAG under a 1 ms budget: the cold run takes tens of
	// milliseconds and every phase of it — ranking, statics and the
	// placement loop — polls the context, so the deadline lands mid-run
	// even on a single-CPU runner where the timer can fire tens of
	// milliseconds late. (This test used to need a 30000-task DAG purely
	// to stretch the placement phase, back when the ranking phase was
	// uninterruptible.)
	params := memsched.LargeRandParams()
	params.Size = 20000
	g, err := memsched.GenerateRandom(params, 5)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := g.MarshalJSON()
	_, err = client.Schedule(context.Background(), serve.ScheduleRequest{
		Graph:     raw,
		Pools:     []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
		Scheduler: "memminmin",
		TimeoutMS: 1,
	})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestTimeout || apiErr.Code != serve.CodeTimeout {
		t.Fatalf("want 408 timeout, got %v", err)
	}
	if !strings.Contains(apiErr.Message, "interrupted") {
		t.Fatalf("timeout error should name the interrupted engine phase, got %q", apiErr.Message)
	}
}

func TestHealthAndUnknownRoute(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{})
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxInFlight == 0 || st.SessionCapacity == 0 {
		t.Fatalf("stats defaults missing: %+v", st)
	}
}
