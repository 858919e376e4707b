package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	memsched "repro"
)

const digestGraph = `{"tasks":[{"wblue":2,"wred":1},{"wblue":1,"wred":2},{"wblue":3,"wred":3}],` +
	`"edges":[{"from":0,"to":1,"file":1,"comm":1},{"from":0,"to":2,"file":2,"comm":1}]}`

// FuzzKeyedSpans checks the byte scan the router keys inline graphs by
// against encoding/json: whenever both read a body, they agree on the
// graph id, the exact graph bytes and the times matrix.
func FuzzKeyedSpans(f *testing.F) {
	for _, body := range []string{
		`{"graph":` + digestGraph + `,"pools":[{"procs":1},{"procs":1}]}`,
		`{"graph":` + digestGraph + `,"times":[[1,2],[3,4],[5,6]],"seed":7}`,
		` { "graph_id" : "abc" , "pools" : [ ] } `,
		"{\"graph_id\":\"\xaf\"}",
		`{"graph_id":"café"}`,
		`{"graph_id":"","graph":{"tasks":[]}}`,
		`{"Graph":{"tasks":[]},"graph":{"tasks":[{"wblue":1,"wred":1}]}}`,
		`{"GRAPH_ID":"x","graph":{"tasks":[]}}`,
		`{"\u0067raph":{"tasks":[]},"graph\u005fid":"x"}`,
		`{"pools":[],"ti\u006des":[[1]],"graph":{"tasks":[{"wblue":1,"wred":1}]}}`,
		`{"graph":{"tasks":[]},"graph":{"tasks":[{"wblue":1,"wred":1}]}}`,
		`{"graph":{"tasks":[]}}`,
		"{\"timeſ\":[[1]],\"graph\":{\"tasks\":[{\"wblue\":1,\"wred\":1}]}}",
		`{"graph":{"tasks":[{"name":"}]{[\"\\","wblue":1,"wred":1}]},"pools":"]}"}`,
		`{"graph":null,"pools":[{"procs":1}]}`,
		`{"graph":{"tasks":[]}} junk`,
		`{"graph":{"tasks":[]}} {}`,
		`{"graph":"x\"y","times":null}`,
		`{"graph":12,"times":[]}`,
		`{}`,
		`[{"graph":{}}]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, ok := scanKeyed(body)
		var req keyedRequest
		if !ok || json.Unmarshal(body, &req) != nil {
			return
		}
		if string(sp.graphID) != req.GraphID {
			t.Fatalf("graph_id: scan %q, encoding/json %q (body %q)", sp.graphID, req.GraphID, body)
		}
		if !bytes.Equal(sp.graph, req.Graph) || (sp.graph == nil) != (req.Graph == nil) {
			t.Fatalf("graph: scan %q, encoding/json %q (body %q)", sp.graph, req.Graph, body)
		}
		var times [][]float64
		if sp.times != nil {
			if err := json.Unmarshal(sp.times, &times); err != nil {
				t.Fatalf("times span %q does not decode: %v (body %q)", sp.times, err, body)
			}
		}
		if !reflect.DeepEqual(times, req.Times) {
			t.Fatalf("times: scan %v, encoding/json %v (body %q)", times, req.Times, body)
		}
	})
}

// TestDigestMemoMatchesRoutingKey runs one memo over bodies that share
// graphs in every way a client can: it must return exactly RoutingKey's
// (key, portable) on every body RoutingKey accepts, on the first sight of
// the bytes and on every repeat.
func TestDigestMemoMatchesRoutingKey(t *testing.T) {
	pools := `"pools":[{"procs":1},{"procs":1}]`
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, []byte(digestGraph), "", "  "); err != nil {
		t.Fatal(err)
	}
	bodies := []string{
		`{"graph":` + digestGraph + `,` + pools + `}`,
		`{"graph":` + digestGraph + `,"pools":[{"procs":2,"capacity":5},{"procs":1}],"seed":3}`,
		`{"seed":3,"graph":` + digestGraph + `,"scheduler":"memminmin",` + pools + `}`,
		`{"graph":` + spaced.String() + `,` + pools + `}`,
		`{"graph":` + digestGraph + `,"times":[[1,2],[3,4],[5,6]],` + pools + `}`,
		`{"graph":` + digestGraph + `,"times":[[1,2,1],[3,4,1],[5,6,1]],` + pools + `}`,
		`{"graph":` + digestGraph + `,"times":null}`,
		`{"graph":` + digestGraph + `}`,
		`{"graph_id":"","graph":` + digestGraph + `}`,
		`{"graph_id":"abc",` + pools + `}`,
		`{"graph_id":"abc","graph":` + digestGraph + `}`,
		`{"graph":` + digestGraph + `}`,
		`{"Graph":` + digestGraph + `}`,
		`{"graph":{"tasks":[{"wblue":1,"wred":1}],"edges":[]}}`,
		"\n{\"graph\" :\t" + digestGraph + " }\r\n",
	}
	m := NewDigestMemo(64)
	for round := 0; round < 2; round++ {
		for _, body := range bodies {
			key, portable, err := RoutingKey([]byte(body))
			if err != nil {
				t.Fatalf("RoutingKey(%s): %v", body, err)
			}
			gotKey, gotPortable, gotErr := m.RoutingKey([]byte(body))
			if gotErr != nil || gotKey != key || gotPortable != portable {
				t.Fatalf("round %d, %s: memo (%q, %v, %v), RoutingKey (%q, %v)",
					round, body, gotKey, gotPortable, gotErr, key, portable)
			}
		}
	}
	// Five distinct (graph bytes, times) pairs miss once each; the
	// case-variant key bypasses the scan and is keyed cold in both
	// rounds; graph-id bodies count as neither. The other 12 bodies × 2
	// rounds − 5 first sights are hits.
	hits, misses := m.Counts()
	if misses != 7 || hits != 19 {
		t.Fatalf("counts: %d hits, %d misses", hits, misses)
	}

	// Bodies RoutingKey rejects stay rejected...
	for _, body := range []string{
		`{"graph":null}`,
		`{}`,
		`{"graph":` + digestGraph + `,"times":[[1,2],[3]]}`,
		`{"graph":{"tasks":[{"wblue":1,"wred":1}],"edges":[{"from":0,"to":0,"file":1,"comm":0}]}}`,
		`{"graph":{"tasks":[{"wblue":2,"wred":2}]}} junk`,
		`{"graph":` + digestGraph + `,"times":"x"}`,
	} {
		if _, _, err := RoutingKey([]byte(body)); err == nil {
			t.Fatalf("RoutingKey accepted %s", body)
		}
		if key, _, err := m.RoutingKey([]byte(body)); err == nil {
			t.Fatalf("memo keyed invalid body %s as %q", body, key)
		}
	}
	// ...except a malformed body around graph bytes that already
	// validated: it routes to that graph's owner, whose replica answers
	// it with the same 400 it would have sent anywhere.
	want, _, _ := RoutingKey([]byte(bodies[0]))
	bad := `{"graph":` + digestGraph + `,"pools":nope}`
	if _, _, err := RoutingKey([]byte(bad)); err == nil {
		t.Fatal("RoutingKey accepted a malformed body")
	}
	if key, portable, err := m.RoutingKey([]byte(bad)); err != nil || key != want || !portable {
		t.Fatalf("memo on a malformed body around a known graph: (%q, %v, %v)", key, portable, err)
	}
}

// TestInvalidGraphNeverEntersMemo sends invalid inline graphs twice to
// both tiers: neither memo may store them or count them.
func TestInvalidGraphNeverEntersMemo(t *testing.T) {
	invalid := []string{
		`{"graph":{"tasks":[{"wblue":1,"wred":1},{"wblue":1,"wred":1}],"edges":[` +
			`{"from":0,"to":1,"file":1,"comm":0},{"from":1,"to":0,"file":1,"comm":0}]}`,
		`{"graph":{"tasks":[{"wblue":-1,"wred":1}],"edges":[]}`,
		`{"graph":` + digestGraph + `,"times":[[1,2],[1],[1,1]]`,
		`{"graph":` + digestGraph + `,"times":[[1,-2],[1,1],[1,1]]`,
		`{"graph":"not a graph"`,
	}
	srv := NewServer(Config{})
	h := srv.Handler()
	router := NewDigestMemo(8)
	for _, prefix := range invalid {
		for _, tc := range []struct{ path, body string }{
			{"/v1/graphs", prefix + `}`},
			{"/v1/schedule", prefix + `,"pools":[{"procs":1},{"procs":1}]}`},
		} {
			for i := 0; i < 2; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
				if w.Code != http.StatusBadRequest {
					t.Fatalf("%s %s: status %d, want 400 (%s)", tc.path, tc.body, w.Code, w.Body)
				}
				if key, _, err := router.RoutingKey([]byte(tc.body)); err == nil {
					t.Fatalf("router memo keyed %s as %q", tc.body, key)
				}
			}
		}
	}
	if n := srv.digests.lru.Len(); n != 0 {
		t.Fatalf("replica memo holds %d digests of invalid graphs", n)
	}
	if n := router.lru.Len(); n != 0 {
		t.Fatalf("router memo holds %d digests of invalid graphs", n)
	}
	st := srv.Stats()
	hits, misses := router.Counts()
	if st.InlineDigestHits+st.InlineDigestMisses+hits+misses != 0 {
		t.Fatalf("invalid graphs counted: replica %d/%d, router %d/%d",
			st.InlineDigestHits, st.InlineDigestMisses, hits, misses)
	}
}

// TestDigestHitAfterEvictionRebuilds evicts the session behind a digest
// the replica still remembers: the next request with those bytes must
// rebuild the session and answer exactly as the first request did.
func TestDigestHitAfterEvictionRebuilds(t *testing.T) {
	srv := NewServer(Config{CacheSize: 1})
	h := srv.Handler()
	body := `{"graph":` + digestGraph + `,"pools":[{"procs":1,"capacity":6},{"procs":1}],"placements":true}`
	send := func() ScheduleResponse {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body))
		req.Header.Set(RequestIDHeader, "evict-1")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		var resp ScheduleResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		resp.WallMicros = 0
		return resp
	}
	first := send()

	// Displace the session without touching the digest memo.
	g := memsched.NewGraph()
	g.AddTask("other", 1, 1)
	other, err := memsched.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	srv.intern(other)
	if _, resident := srv.lookup(first.GraphID); resident {
		t.Fatal("session still resident after eviction")
	}
	if _, remembered := srv.digests.get(digestOf([]byte(digestGraph), nil)); !remembered {
		t.Fatal("digest forgotten with its session")
	}

	rebuilt := send()
	if !reflect.DeepEqual(rebuilt, first) {
		t.Fatalf("rebuilt answer differs:\n got %+v\nwant %+v", rebuilt, first)
	}
	if st := srv.Stats(); st.InlineDigestHits != 0 || st.InlineDigestMisses != 2 || st.SessionMisses != 2 {
		t.Fatalf("after the rebuild: digest %d/%d, session misses %d", st.InlineDigestHits, st.InlineDigestMisses, st.SessionMisses)
	}

	warm := send()
	if !warm.SessionCached {
		t.Fatal("third request missed the rebuilt session")
	}
	warm.SessionCached = false
	if !reflect.DeepEqual(warm, first) {
		t.Fatalf("memo-hit answer differs:\n got %+v\nwant %+v", warm, first)
	}
	if st := srv.Stats(); st.InlineDigestHits != 1 || st.SessionHits != 1 {
		t.Fatalf("after the hit: digest hits %d, session hits %d", st.InlineDigestHits, st.SessionHits)
	}
}

// TestGraphKeyRejectsNull pins that the cold oracle agrees with the
// replicas about a null graph.
func TestGraphKeyRejectsNull(t *testing.T) {
	if _, err := GraphKey(json.RawMessage("null"), nil); !errors.Is(err, ErrNoRoutingKey) {
		t.Fatalf("GraphKey(null) = %v, want ErrNoRoutingKey", err)
	}
	if _, _, err := RoutingKey([]byte(`{"graph":null}`)); !errors.Is(err, ErrNoRoutingKey) {
		t.Fatalf("RoutingKey(null graph) = %v, want ErrNoRoutingKey", err)
	}
}
