package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/cluster"
	"repro/serve"
)

// logSink is a goroutine-safe slog destination, one per tier under test.
type logSink struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *logSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *logSink) logger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(s, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// TestClusterRequestIDPropagation drives one identified request through
// a router over three replicas and checks the same id lands in the
// response, the router's access log, and exactly one replica's access
// log — the join key the whole observability layer hangs off.
func TestClusterRequestIDPropagation(t *testing.T) {
	sinks := map[string]*logSink{"a": {}, "b": {}, "c": {}}
	var routerSink logSink
	client, _, _, _ := startCluster(t, []string{"a", "b", "c"},
		func(id string) serve.Config { return serve.Config{Logger: sinks[id].logger()} },
		cluster.Config{Logger: routerSink.logger()})

	ctx := context.Background()
	g := randGraph(t, 60, 3)
	reg, err := client.RegisterGraph(ctx, g, nil)
	if err != nil {
		t.Fatal(err)
	}

	const reqID = "cluster-prop-1"
	res, err := client.Schedule(serve.ContextWithRequestID(ctx, reqID), serve.ScheduleRequest{
		GraphID: reg.ID,
		Pools:   []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != reqID {
		t.Fatalf("response request id = %q, want %q", res.RequestID, reqID)
	}

	// Both tiers write their access line after the response is sent, so
	// the client can hold the response before either line exists: wait
	// for the router's line and one replica's before checking them.
	idAttr := `"request_id":"` + reqID + `"`
	logged := func() bool {
		if !strings.Contains(routerSink.String(), idAttr) {
			return false
		}
		for _, sink := range sinks {
			if strings.Contains(sink.String(), idAttr) {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !logged() && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	rout := routerSink.String()
	if !strings.Contains(rout, `"request_id":"`+reqID+`"`) || !strings.Contains(rout, `"msg":"request"`) {
		t.Fatalf("router access log has no line for %s:\n%s", reqID, rout)
	}
	// The router's line names the replica it forwarded to; that replica's
	// own access log must carry the same id (first hop: unsuffixed).
	serving := ""
	for id, sink := range sinks {
		if strings.Contains(sink.String(), `"request_id":"`+reqID+`"`) {
			if serving != "" {
				t.Fatalf("id %s appears on both replica %s and %s", reqID, serving, id)
			}
			serving = id
		}
	}
	if serving == "" {
		t.Fatalf("no replica access log carries %s", reqID)
	}
	if !strings.Contains(rout, `"replica":"`+serving+`"`) {
		t.Fatalf("router log does not attribute %s to replica %s:\n%s", reqID, serving, rout)
	}
}

// TestClusterErrorBodyRequestID checks the router's structured errors
// name the request too, all the way out to the typed client error.
func TestClusterErrorBodyRequestID(t *testing.T) {
	client, _, _, _ := startCluster(t, []string{"a", "b"}, nil, cluster.Config{})

	const reqID = "cluster-err-1"
	_, err := client.Schedule(serve.ContextWithRequestID(context.Background(), reqID), serve.ScheduleRequest{
		GraphID: strings.Repeat("0", 64),
		Pools:   []serve.PoolSpec{{Procs: 1}},
	})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.Status != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", apiErr.Status)
	}
	if apiErr.RequestID != reqID {
		t.Fatalf("APIError.RequestID = %q, want %q", apiErr.RequestID, reqID)
	}
}

// TestRouterForwardsQueryString sends ?trace=1 through the router and
// requires the span timeline back: request modifiers in the query
// string must reach the replica that actually serves the request.
func TestRouterForwardsQueryString(t *testing.T) {
	_, _, base, _ := startCluster(t, []string{"a", "b"}, nil, cluster.Config{})

	body := `{"graph": {"tasks": [{"wblue": 2, "wred": 1}], "edges": []},
	          "pools": [{"procs": 1, "capacity": 8}, {"procs": 1, "capacity": 4}]}`
	resp, err := http.Post(base+"/v1/schedule?trace=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	// The router stamps the id itself and must swallow the replica's
	// echo (the header map key is canonicalized to X-Request-Id, not
	// X-Request-ID) — the client sees exactly one value.
	if ids := resp.Header.Values(serve.RequestIDHeader); len(ids) != 1 {
		t.Fatalf("response carries %d X-Request-ID values %v, want exactly 1", len(ids), ids)
	}
	var sr serve.ScheduleResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Trace) == 0 {
		t.Fatal("?trace=1 lost on the router hop: no spans in the response")
	}
}

// TestClusterFailoverSuffix kills a replica and checks the failover
// hop's provenance: the replica that ends up serving sees the original
// id with an "-f<hop>" suffix, and the client still gets the base id
// back — the base stays a greppable substring across every tier.
func TestClusterFailoverSuffix(t *testing.T) {
	sinks := map[string]*logSink{"a": {}, "b": {}, "c": {}}
	var routerSink logSink
	client, _, _, reps := startCluster(t, []string{"a", "b", "c"},
		func(id string) serve.Config { return serve.Config{Logger: sinks[id].logger()} },
		cluster.Config{Logger: routerSink.logger()})

	ctx := context.Background()
	g := randGraph(t, 60, 5)
	reg, err := client.RegisterGraph(ctx, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	owner := ownerOf(t, []string{"a", "b", "c"}, reg.ID)
	reps[owner].kill()

	const reqID = "cluster-fail-1"
	res, err := client.Schedule(serve.ContextWithRequestID(ctx, reqID), serve.ScheduleRequest{
		GraphID: reg.ID,
		Pools:   []serve.PoolSpec{{Procs: 2}, {Procs: 2}},
		Seed:    1,
	})
	if err != nil {
		// The session died with its owner; in a real deployment the client
		// re-registers (schedload does). A structured 404 still proves the
		// failover hop reached a live replica — with its id intact.
		var apiErr *serve.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
			t.Fatal(err)
		}
		if apiErr.RequestID != reqID {
			t.Fatalf("failover error request id = %q, want %q", apiErr.RequestID, reqID)
		}
	} else if res.RequestID != reqID {
		t.Fatalf("failover response request id = %q, want %q", res.RequestID, reqID)
	}

	if out := routerSink.String(); !strings.Contains(out, `"msg":"replica failed, failing over"`) ||
		!strings.Contains(out, `"request_id":"`+reqID+`"`) {
		t.Fatalf("router log missing failover provenance for %s:\n%s", reqID, out)
	}
	suffixed := false
	for id, sink := range sinks {
		if id == owner {
			continue
		}
		if strings.Contains(sink.String(), `"request_id":"`+reqID+`-f1"`) {
			suffixed = true
		}
	}
	if !suffixed {
		t.Fatalf("no surviving replica saw the -f1 suffixed id %s-f1", reqID)
	}
}

// TestRouterInlineDigestMemo sends one inline graph through the router
// twice, then twice more re-serialised: every answer comes from the
// graph's owner with its canonical id, and both tiers count one digest
// miss per encoding and one hit per repeat on /metrics.
func TestRouterInlineDigestMemo(t *testing.T) {
	ids := []string{"a", "b", "c"}
	_, _, routerURL, reps := startCluster(t, ids, nil, cluster.Config{})
	raw, err := json.Marshal(randGraph(t, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	want, err := serve.GraphKey(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	owner := ownerOf(t, ids, want)
	for i, graph := range [][]byte{raw, raw, spaced.Bytes(), spaced.Bytes()} {
		body, err := json.Marshal(serve.ScheduleRequest{Graph: graph, Pools: []serve.PoolSpec{{Procs: 2}, {Procs: 2}}})
		if err != nil {
			t.Fatal(err)
		}
		// json.Marshal compacts a RawMessage; splice the graph bytes in
		// verbatim so the re-spaced encoding reaches the wire.
		body = bytes.Replace(body, compact(t, graph), graph, 1)
		resp, err := http.Post(routerURL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got serve.ScheduleResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, resp.StatusCode, err)
		}
		if got.GraphID != want || got.SessionCached != (i > 0) {
			t.Fatalf("request %d: graph %s cached %v, want %s cached %v", i, got.GraphID, got.SessionCached, want, i > 0)
		}
	}
	for _, name := range []string{"memschedd_router_inline_digest_hits_total", "memschedd_router_inline_digest_misses_total"} {
		if n := scrapeMetric(t, routerURL, name, ""); n != 2 {
			t.Fatalf("router %s = %g, want 2", name, n)
		}
	}
	for id, rep := range reps {
		wantN := 0.0
		if id == owner {
			wantN = 2
		}
		for _, name := range []string{"memschedd_inline_digest_hits_total", "memschedd_inline_digest_misses_total"} {
			if n := scrapeMetric(t, rep.ts.URL, name, ""); n != wantN {
				t.Fatalf("replica %s %s = %g, want %g", id, name, n, wantN)
			}
		}
	}
}

func compact(t *testing.T, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
