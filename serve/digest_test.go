package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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

// certifiedGraph is the graph FuzzCertifiedDecode primes the replica's
// digest memo with, alone and with certifiedTimes (validGraph of the
// external tests).
const (
	certifiedGraph = `{"tasks":[{"wblue":2,"wred":1},{"wblue":1,"wred":2}],` +
		`"edges":[{"from":0,"to":1,"file":1,"comm":1}]}`
	certifiedTimes = `[[1,2],[3,4]]`
)

// primedServer returns a replica with a 4 KiB body cap whose digest memo
// holds certifiedGraph, alone and with certifiedTimes.
func primedServer(t testing.TB) *Server {
	s := NewServer(Config{MaxRequestBytes: 4 << 10})
	for _, body := range []string{
		`{"graph":` + certifiedGraph + `}`,
		`{"graph":` + certifiedGraph + `,"times":` + certifiedTimes + `}`,
	} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("priming %s: status %d (%s)", body, w.Code, w.Body)
		}
	}
	return s
}

// FuzzCertifiedDecode checks decodeBody against the decoder it replaced,
// one encoding/json Decoder streaming the capped body. For any body, each
// request type and with or without a Content-Length, both must answer
// with the same status and error, and decode the same request. The memo
// is primed, so every body around the primed graph bytes takes the
// certified path up to its spliced decode.
func FuzzCertifiedDecode(f *testing.F) {
	g, pools := certifiedGraph, `"pools":[{"procs":1},{"procs":1}]`
	for _, body := range []string{
		`{"graph":` + g + `,` + pools + `}`,
		`{"graph":` + g + `,"times":` + certifiedTimes + `,` + pools + `}`,
		`{"graph":` + g + `,"alphas":[0.5,1],"seed":3,"scheduler":"memminmin","placements":true}`,
		"\n{\"graph\" :\t" + g + " \r\n, " + pools + " }\n ",
		`{"graph":` + g + `,` + pools + `} junk`,
		`{"graph":` + g + `,` + pools + `} {}`,
		`{"graph":` + g + `,"graph":` + g + `}`,
		`{"Graph":` + g + `,` + pools + `}`,
		`{"graph":` + g + `,"GRAPH":{}}`,
		`{"graph":` + g + `,` + pools + `}`,
		`{"pools":[{"procs":1},,],"graph":` + g + `}`,
		`{"pools":nope,"graph":` + g + `}`,
		`{"graph":` + g + `,"pools":nope}`,
		`{"graph":` + g + `,"pools":[{"procs":"x"}],"seed":1.5}`,
		`{"graph_id":"abc","graph":` + g + `}`,
		`{"graph_id":"","graph":` + g + `}`,
		`{"graph":null,` + pools + `}`,
		`{"graph":` + g + `,"times":[[1,2],[3]]}`,
		`{"graph":` + g + `,"times":` + certifiedTimes + `,"times":` + certifiedTimes + `}`,
		`{"graph":` + g + `,` + pools + `,"pad":"` + strings.Repeat("x", 5000) + `"}`,
		`{"graph":` + g + `,"pools": x` + strings.Repeat(" ", 5000),
		`{"graph":`,
		``,
	} {
		for mode := range uint8(6) {
			f.Add([]byte(body), mode)
		}
	}
	s := primedServer(f)
	f.Fuzz(func(t *testing.T, body []byte, mode uint8) {
		dropLength := mode/3%2 == 1
		switch mode % 3 {
		case 0:
			checkCertified(t, s, body, dropLength, func(r *RegisterRequest) *json.RawMessage { return &r.Graph })
		case 1:
			checkCertified(t, s, body, dropLength, func(r *ScheduleRequest) *json.RawMessage { return &r.Graph })
		default:
			checkCertified(t, s, body, dropLength, func(r *SweepRequest) *json.RawMessage { return &r.Graph })
		}
	})
}

// checkCertified decodes body into a T with decodeBody and with the plain
// streaming decoder, and fails unless both agree.
func checkCertified[T any](t *testing.T, s *Server, body []byte, dropLength bool, graph func(*T) *json.RawMessage) {
	t.Helper()
	request := func(w http.ResponseWriter) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
		if dropLength {
			r.ContentLength = -1
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
		return r
	}
	var got, want T
	wGot, wWant := httptest.NewRecorder(), httptest.NewRecorder()
	_, errGot := s.decodeBody(wGot, request(wGot), &got, graph(&got))
	errWant := plainDecode(wWant, request(wWant), &want)
	if (errGot == nil) != (errWant == nil) || wGot.Code != wWant.Code || wGot.Body.String() != wWant.Body.String() {
		t.Fatalf("body %q: certified %d %q (%v), plain %d %q (%v)",
			body, wGot.Code, wGot.Body, errGot, wWant.Code, wWant.Body, errWant)
	}
	if errGot == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: certified %+v, plain %+v", body, got, want)
	}
}

// plainDecode is decodeBody before the certified path: one encoding/json
// Decoder streaming the capped body, then the trailing-data check.
func plainDecode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(v)
	if err == nil {
		err = trailingData(dec)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return err
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, "malformed JSON: "+err.Error())
	}
	return err
}

// TestCertifiedDecodeAliasesBody pins that the fast path runs: on a primed
// graph the request's Graph is the body's own bytes, not a copy, and
// carries the scanned digest.
func TestCertifiedDecodeAliasesBody(t *testing.T) {
	s := primedServer(t)
	for _, times := range []string{"", `,"times":` + certifiedTimes} {
		body := []byte(`{"seed":3,"graph":` + certifiedGraph + times + `,"pools":[{"procs":1},{"procs":1}]}`)
		var req ScheduleRequest
		sg, ok := s.certifiedDecode(body, &req, &req.Graph)
		if !ok {
			t.Fatalf("certified decode refused %s", body)
		}
		at := bytes.Index(body, []byte(certifiedGraph))
		if string(req.Graph) != certifiedGraph || &req.Graph[0] != &body[at] {
			t.Fatalf("graph %q does not alias the body", req.Graph)
		}
		if req.Seed != 3 || len(req.Pools) != 2 || (times != "") != (req.Times != nil) {
			t.Fatalf("decoded %+v", req)
		}
		if sg.digest != digestOf(req.Graph, req.Times) {
			t.Fatal("scanned digest differs from the request's")
		}
	}
}

// TestScannedDigestReused pins the hash-once rule: digestFor returns the
// scanned digest, unhashed, for the scanned bytes and times, and hashes
// anything else afresh.
func TestScannedDigestReused(t *testing.T) {
	graph := []byte(certifiedGraph)
	times := [][]float64{{1, 2}, {3, 4}}
	sg := scannedGraph{graph: graph, times: times} // digest left zero: a reuse returns it
	var zero graphDigest
	if sg.digestFor(graph, [][]float64{{1, 2}, {3, 4}}) != zero || sg.digestFor(bytes.Clone(graph), times) != zero {
		t.Fatal("the scanned digest was not reused for the scanned bytes")
	}
	for _, tc := range []struct {
		graph []byte
		times [][]float64
	}{
		{graph, nil},
		{graph, [][]float64{}},
		{graph, [][]float64{{1, 2}, {3, 5}}},
		{graph, [][]float64{{1, 2}, {3, math.Copysign(0, -1)}}},
		{[]byte(digestGraph), times},
	} {
		if got := sg.digestFor(tc.graph, tc.times); got != digestOf(tc.graph, tc.times) {
			t.Fatalf("digestFor(%s, %v) reused a digest of other input", tc.graph, tc.times)
		}
	}
	if (scannedGraph{}).digestFor(graph, nil) != digestOf(graph, nil) {
		t.Fatal("an empty scan does not hash")
	}
}
