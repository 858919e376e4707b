package serve_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	memsched "repro"
	"repro/serve"
	"repro/sweep"
)

func sweepAlphas(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i+1) / float64(n)
	}
	return out
}

// TestSweepEndpointGolden: the streamed records must be in point order and
// bit-identical to a direct engine run on an equivalent session.
func TestSweepEndpointGolden(t *testing.T) {
	client, srv := newTestServer(t, serve.Config{})
	ctx := context.Background()

	g, err := memsched.GenerateRandom(memsched.SmallRandParams(), 21)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := client.RegisterGraph(ctx, g, nil)
	if err != nil {
		t.Fatal(err)
	}

	req := serve.SweepRequest{
		GraphID:    reg.ID,
		Pools:      []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
		Alphas:     sweepAlphas(8),
		Schedulers: []string{"memheft", "memminmin"},
		Seeds:      []int64{1, 2},
		Workers:    4,
	}
	var points []serve.SweepPoint
	sum, err := client.Sweep(ctx, req, func(pt serve.SweepPoint) error {
		points = append(points, pt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 32 || sum.Points != 32 {
		t.Fatalf("got %d points, summary %d, want 32", len(points), sum.Points)
	}
	for i, pt := range points {
		if pt.Index != i {
			t.Fatalf("stream out of order at %d: %+v", i, pt)
		}
	}
	if !sum.SessionCached {
		t.Fatal("sweep of a registered graph should hit the session cache")
	}
	if sum.GraphID != reg.ID {
		t.Fatalf("summary graph id %q != %q", sum.GraphID, reg.ID)
	}
	if len(sum.Curves) != 2 || len(sum.Curves[0].Makespan) != 8 {
		t.Fatalf("curves shape wrong: %+v", sum.Curves)
	}

	// Golden: the same spec on a direct session.
	sess, err := memsched.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sweep.Run(ctx, sess, sweep.Spec{
		Base:       memsched.NewDualPlatform(2, 2, memsched.Unlimited, memsched.Unlimited),
		Alphas:     sweepAlphas(8),
		Schedulers: []string{"memheft", "memminmin"},
		Seeds:      []int64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		want := direct.Points[i]
		if pt.Feasible != want.Feasible || pt.Makespan != want.Makespan || pt.Scheduler != want.Point.Scheduler ||
			pt.Seed != want.Point.Seed || pt.Alpha != want.Point.Alpha {
			t.Fatalf("point %d: wire %+v != direct %+v", i, pt, want)
		}
	}
	if sum.BestIndex != direct.Summary.BestIndex || sum.Feasible != direct.Summary.Feasible ||
		sum.RefMakespan != direct.Summary.RefMakespan || sum.Peak != direct.Summary.Peak {
		t.Fatalf("summary: wire %+v != direct %+v", sum, direct.Summary)
	}

	if st := srv.Stats(); st.SweepPoints != 32 || st.Scheduled != uint64(sum.Feasible) {
		t.Fatalf("server counters after sweep: %+v", st)
	}
}

// TestSweepEndpointExplicitPlatforms drives the platform-axis shape with an
// inline graph and a pool-times matrix (k-pool engine).
func TestSweepEndpointExplicitPlatforms(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{})
	ctx := context.Background()

	g := memsched.NewGraph()
	a := g.AddTask("a", 0, 0)
	b := g.AddTask("b", 0, 0)
	g.MustAddEdge(a, b, 5, 1) // a 5-unit file starves the capacity-1 axis point
	raw, _ := g.MarshalJSON()

	big := int64(1 << 40)
	one := int64(1)
	sum, err := client.Sweep(ctx, serve.SweepRequest{
		Graph: raw,
		Times: [][]float64{{1, 2, 3}, {3, 2, 1}},
		Platforms: [][]serve.PoolSpec{
			{{Procs: 1, Capacity: &big}, {Procs: 1, Capacity: &big}, {Procs: 1, Capacity: &big}},
			{{Procs: 1, Capacity: &one}, {Procs: 1, Capacity: &one}, {Procs: 1, Capacity: &one}},
		},
		Xs:         []float64{1 << 40, 1},
		Schedulers: []string{"memheft"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Points != 2 || sum.Feasible != 1 || sum.BestIndex != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(sum.Curves) != 1 || sum.Curves[0].Makespan[1] != nil {
		t.Fatalf("starved platform should be a null curve entry: %+v", sum.Curves)
	}
	if fr := sum.Frontier; len(fr) != 1 || fr[0].Axis != 0 {
		t.Fatalf("frontier = %+v", fr)
	}
}

func TestSweepEndpointValidation(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{MaxSweepPoints: 4})
	ctx := context.Background()
	raw, _ := memsched.PaperExample().MarshalJSON()
	pools := []serve.PoolSpec{{Procs: 1}, {Procs: 1}}

	cases := map[string]serve.SweepRequest{
		"no axes":         {Graph: raw, Pools: pools},
		"both axes":       {Graph: raw, Pools: pools, Alphas: []float64{1}, Platforms: [][]serve.PoolSpec{pools}},
		"alpha no pools":  {Graph: raw, Alphas: []float64{1}},
		"unknown sched":   {Graph: raw, Pools: pools, Alphas: []float64{1}, Schedulers: []string{"nope"}},
		"too many points": {Graph: raw, Pools: pools, Alphas: sweepAlphas(5)},
		"neg workers":     {Graph: raw, Pools: pools, Alphas: []float64{1}, Workers: -1},
		"neg timeout":     {Graph: raw, Pools: pools, Alphas: []float64{1}, TimeoutMS: -1},
		"pools+platforms": {Graph: raw, Pools: pools, Platforms: [][]serve.PoolSpec{pools}},
		"no graph":        {Pools: pools, Alphas: []float64{1}},
		"zero alpha":      {Graph: raw, Pools: pools, Alphas: []float64{0}},
		"negative peak":   {Graph: raw, Pools: pools, Alphas: []float64{1}, Peak: -1},
	}
	for name, req := range cases {
		_, err := client.Sweep(ctx, req, nil)
		var apiErr *serve.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("%s: want 400, got %v", name, err)
		}
	}
}

// TestSweepWorkerBudgetIsServerWide: a sweep can never claim more workers
// than the server-wide budget, and concurrent sweeps sharing an exhausted
// budget still complete (each gets at least one worker).
func TestSweepWorkerBudgetIsServerWide(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{MaxSweepWorkers: 2})
	ctx := context.Background()
	g, err := memsched.GenerateRandom(memsched.SmallRandParams(), 31)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := g.MarshalJSON()
	req := serve.SweepRequest{
		Graph:      raw,
		Pools:      []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
		Alphas:     sweepAlphas(8),
		Schedulers: []string{"memheft"},
		Workers:    16,
	}
	var wg sync.WaitGroup
	sums := make([]*serve.SweepSummary, 3)
	errs := make([]error, 3)
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = client.Sweep(ctx, req, nil)
		}(i)
	}
	wg.Wait()
	for i := range sums {
		if errs[i] != nil {
			t.Fatalf("sweep %d: %v", i, errs[i])
		}
		if sums[i].Workers < 1 || sums[i].Workers > 2 {
			t.Fatalf("sweep %d ran with %d workers, budget is 2", i, sums[i].Workers)
		}
	}
}

// TestSweepEngineRejectionIsPreStream400: failures the engine raises
// before any point is delivered — here the exact search on a platform
// whose pool count does not match the timing matrix — must come back as a
// structured 4xx, not as a committed 200 with an in-stream error record.
func TestSweepEngineRejectionIsPreStream400(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{})
	ctx := context.Background()

	g := memsched.NewGraph()
	a := g.AddTask("a", 0, 0)
	b := g.AddTask("b", 0, 0)
	g.MustAddEdge(a, b, 1, 1)
	raw, _ := g.MarshalJSON()

	_, err := client.Sweep(ctx, serve.SweepRequest{
		Graph:      raw,
		Times:      [][]float64{{1, 2, 3}, {3, 2, 1}},
		Pools:      []serve.PoolSpec{{Procs: 1}, {Procs: 1}},
		Alphas:     []float64{1.0},
		Peak:       100, // skip the HEFT reference so the optimal point is the first failure
		Schedulers: []string{"optimal"},
	}, nil)
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("want a pre-stream 400, got %v", err)
	}
	if !strings.Contains(apiErr.Message, "pool times") {
		t.Fatalf("error does not name the cause: %v", err)
	}
}

// TestSweepTimeoutEndsStreamWithErrorRecord: a sweep that outlives its
// budget terminates the (already committed) NDJSON stream with a typed
// error record, which the client surfaces as an APIError.
func TestSweepTimeoutEndsStreamWithErrorRecord(t *testing.T) {
	client, _ := newTestServer(t, serve.Config{MaxRequestBytes: 64 << 20})
	ctx := context.Background()

	params := memsched.LargeRandParams()
	params.Size = 20000
	g, err := memsched.GenerateRandom(params, 5)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := g.MarshalJSON()
	_, err = client.Sweep(ctx, serve.SweepRequest{
		Graph:      raw,
		Pools:      []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
		Alphas:     []float64{0.7, 0.8, 0.9, 1.0},
		Schedulers: []string{"memminmin"},
		TimeoutMS:  1,
	}, nil)
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != serve.CodeTimeout {
		t.Fatalf("want timeout error record, got %v", err)
	}
}

// TestMetricsEndpoint: the Prometheus exposition carries the per-endpoint
// request counters, the latency histogram and the cache gauges.
func TestMetricsEndpoint(t *testing.T) {
	srv := serve.NewServer(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := serve.NewClient(ts.URL, serve.WithHTTPClient(ts.Client()))
	ctx := context.Background()

	raw, _ := memsched.PaperExample().MarshalJSON()
	if _, err := client.Schedule(ctx, serve.ScheduleRequest{Graph: raw, Pools: cap4()}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Schedule(ctx, serve.ScheduleRequest{Pools: cap4()}); err == nil {
		t.Fatal("expected a 400 for the counter test")
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`memschedd_requests_total{endpoint="/v1/schedule",code="200"} 1`,
		`memschedd_requests_total{endpoint="/v1/schedule",code="400"} 1`,
		`memschedd_request_duration_seconds_bucket{endpoint="/v1/schedule",le="+Inf"} 2`,
		`memschedd_request_duration_seconds_count{endpoint="/v1/schedule"} 2`,
		"memschedd_session_cache_hits_total 0",
		"memschedd_session_cache_misses_total 1",
		"memschedd_sessions_cached 1",
		"memschedd_in_flight 0",
		"memschedd_scheduled_total 1",
		"# TYPE memschedd_request_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}
