package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/serve"
)

// post sends raw JSON to path and returns the recorded response.
func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// decodeError asserts the response is a structured ErrorResponse and
// returns it.
func decodeError(t *testing.T, w *httptest.ResponseRecorder) serve.ErrorResponse {
	t.Helper()
	var e serve.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not JSON: %v (body %q)", err, w.Body.String())
	}
	if e.Error == "" || e.Code == "" {
		t.Fatalf("error body missing fields: %q", w.Body.String())
	}
	return e
}

const validGraph = `{"tasks":[{"wblue":2,"wred":1},{"wblue":1,"wred":2}],` +
	`"edges":[{"from":0,"to":1,"file":1,"comm":1}]}`

// TestScheduleRejections is the table-driven 4xx coverage of the schedule
// and register decode paths: every malformed or invalid request must yield
// the right status and structured code, never a 5xx or an unstructured
// body. Rows marked unroutable must also fail serve.RoutingKey, so a
// router and a replica agree on what a valid body is.
//
// The server has validGraph memoized, so rows around it take the certified
// decode as far as it goes; every answer must still be the plain
// decoder's. Rows marked noLength are sent without a Content-Length.
func TestScheduleRejections(t *testing.T) {
	h := serve.NewServer(serve.Config{MaxRequestBytes: 64 << 10}).Handler()
	if w := post(t, h, "/v1/graphs", `{"graph":`+validGraph+`}`); w.Code != http.StatusOK {
		t.Fatalf("registering validGraph: %d %s", w.Code, w.Body)
	}
	const (
		unseenGraph = `{"tasks":[{"wblue":7,"wred":5}],"edges":[]}`
		// overflowGraph's two tasks take 1e308 each: their sum is +Inf.
		overflowGraph = `{"tasks":[{"wblue":1e308,"wred":1e308},{"wblue":1e308,"wred":1e308}],` +
			`"edges":[{"from":0,"to":1,"file":1,"comm":0}]}`
		// bigFilesGraph's two files into task 2 sum past int64 (each is
		// 1.5 × 2^62, the unlimited capacity).
		bigFilesGraph = `{"tasks":[{"wblue":1,"wred":1},{"wblue":1,"wred":1},{"wblue":1,"wred":1}],` +
			`"edges":[{"from":0,"to":2,"file":6917529027641081856,"comm":0},` +
			`{"from":1,"to":2,"file":6917529027641081856,"comm":0}]}`
		unbounded = `"pools":[{"procs":1},{"procs":1}]`
	)
	padding := strings.Repeat(" ", 100<<10)
	padString := `"pad":"` + strings.Repeat("x", 100<<10) + `"`

	type rejection struct {
		name       string
		path       string
		body       string
		status     int
		code       string
		contains   string
		unroutable bool
		noLength   bool
	}
	cases := []rejection{
		{
			name:   "malformed JSON",
			path:   "/v1/schedule",
			body:   `{"graph": nope}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "malformed JSON", unroutable: true,
		},
		{
			name: "trailing data after the body",
			path: "/v1/schedule",
			body: `{"graph":` + validGraph +
				`,"pools":[{"procs":1},{"procs":1}]} junk`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "malformed JSON", unroutable: true,
		},
		{
			name: "second value after the body",
			path: "/v1/simulate",
			body: `{"graph":` + validGraph +
				`,"pools":[{"procs":1},{"procs":1}]} {}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "malformed JSON", unroutable: true,
		},
		{
			name:   "register with trailing data",
			path:   "/v1/graphs",
			body:   `{"graph":` + validGraph + `}]`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "malformed JSON", unroutable: true,
		},
		{
			name: "sweep with trailing data",
			path: "/v1/sweep",
			body: `{"graph":` + validGraph +
				`,"pools":[{"procs":1},{"procs":1}],"alphas":[1]} 0`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "malformed JSON", unroutable: true,
		},
		{
			name:   "null graph",
			path:   "/v1/schedule",
			body:   `{"graph":null,"pools":[{"procs":1},{"procs":1}]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: `"graph_id" or "graph"`, unroutable: true,
		},
		{
			name:   "null graph on simulate",
			path:   "/v1/simulate",
			body:   `{"graph":null,"pools":[{"procs":1},{"procs":1}]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: `"graph_id" or "graph"`, unroutable: true,
		},
		{
			name:   "null graph on sweep",
			path:   "/v1/sweep",
			body:   `{"graph":null,"pools":[{"procs":1},{"procs":1}],"alphas":[1]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: `"graph_id" or "graph"`, unroutable: true,
		},
		{
			name:   "register null graph",
			path:   "/v1/graphs",
			body:   `{"graph":null}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: `missing "graph"`, unroutable: true,
		},
		{
			name:   "register ragged times",
			path:   "/v1/graphs",
			body:   `{"graph":` + validGraph + `,"times":[[1,2],[1]]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "task 1 has 1 pool times for 2 pools", unroutable: true,
		},
		{
			name:   "register negative pool time",
			path:   "/v1/graphs",
			body:   `{"graph":` + validGraph + `,"times":[[1,-2],[1,1]]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "negative time on pool 1", unroutable: true,
		},
		{
			name:   "register times without pools",
			path:   "/v1/graphs",
			body:   `{"graph":` + validGraph + `,"times":[[],[]]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "no pool columns", unroutable: true,
		},
		{
			name:   "empty body",
			path:   "/v1/schedule",
			body:   ``,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			unroutable: true,
		},
		{
			name:   "neither graph nor graph_id",
			path:   "/v1/schedule",
			body:   `{"pools":[{"procs":1},{"procs":1}]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: `"graph_id" or "graph"`, unroutable: true,
		},
		{
			name: "both graph and graph_id",
			path: "/v1/schedule",
			body: `{"graph_id":"abc","graph":` + validGraph +
				`,"pools":[{"procs":1},{"procs":1}]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "exactly one",
		},
		{
			name:   "unknown graph id",
			path:   "/v1/schedule",
			body:   `{"graph_id":"deadbeef","pools":[{"procs":1},{"procs":1}]}`,
			status: http.StatusNotFound, code: serve.CodeNotFound,
			contains: "not registered",
		},
		{
			name: "unknown scheduler",
			path: "/v1/schedule",
			body: `{"graph":` + validGraph +
				`,"pools":[{"procs":1},{"procs":1}],"scheduler":"quantum-annealer"}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "unknown scheduler",
		},
		{
			name: "cycle-containing graph",
			path: "/v1/schedule",
			body: `{"graph":{"tasks":[{"wblue":1,"wred":1},{"wblue":1,"wred":1}],` +
				`"edges":[{"from":0,"to":1,"file":1,"comm":0},{"from":1,"to":0,"file":1,"comm":0}]},` +
				`"pools":[{"procs":1},{"procs":1}]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "cycle", unroutable: true,
		},
		{
			name: "edge referencing missing task",
			path: "/v1/schedule",
			body: `{"graph":{"tasks":[{"wblue":1,"wred":1}],` +
				`"edges":[{"from":0,"to":7,"file":1,"comm":0}]},` +
				`"pools":[{"procs":1},{"procs":1}]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "missing task", unroutable: true,
		},
		{
			name: "negative processing time",
			path: "/v1/schedule",
			body: `{"graph":{"tasks":[{"wblue":-1,"wred":1}],"edges":[]},` +
				`"pools":[{"procs":1},{"procs":1}]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "negative", unroutable: true,
		},
		{
			name:   "missing pools",
			path:   "/v1/schedule",
			body:   `{"graph":` + validGraph + `}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: `"pools"`,
		},
		{
			name: "platform without processors",
			path: "/v1/schedule",
			body: `{"graph":` + validGraph +
				`,"pools":[{"procs":0},{"procs":0}]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "no processors",
		},
		{
			name: "negative timeout",
			path: "/v1/schedule",
			body: `{"graph":` + validGraph +
				`,"pools":[{"procs":1},{"procs":1}],"timeout_ms":-5}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "timeout_ms",
		},
		{
			name: "times with graph_id",
			path: "/v1/schedule",
			body: `{"graph_id":"abc","times":[[1,2]],` +
				`"pools":[{"procs":1},{"procs":1}]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "times",
		},
		{
			name: "times matrix wrong shape",
			path: "/v1/schedule",
			body: `{"graph":` + validGraph + `,"times":[[1,2]],` +
				`"pools":[{"procs":1},{"procs":1}]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "matrix", unroutable: true,
		},
		{
			name: "insertion with wrong scheduler",
			path: "/v1/schedule",
			body: `{"graph":` + validGraph +
				`,"pools":[{"procs":1},{"procs":1}],"scheduler":"memminmin","insertion":true}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "WithInsertion",
		},
		{
			name: "unknown simulate policy",
			path: "/v1/simulate",
			body: `{"graph":` + validGraph +
				`,"pools":[{"procs":1},{"procs":1}],"policy":"lifo"}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "unknown policy",
		},
		{
			name:   "register without graph",
			path:   "/v1/graphs",
			body:   `{}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: `"graph"`, unroutable: true,
		},
		{
			name:   "register malformed graph",
			path:   "/v1/graphs",
			body:   `{"graph":{"tasks":"not-a-list"}}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
		},
		{
			name:   "oversized request",
			path:   "/v1/graphs",
			body:   `{"graph":{"tasks":[` + strings.Repeat(`{"wblue":1,"wred":1},`, 10000) + `]}}`,
			status: http.StatusRequestEntityTooLarge, code: serve.CodeTooLarge,
			contains: "exceeds",
		},
		{
			name:   "register task times summing to +Inf",
			path:   "/v1/graphs",
			body:   `{"graph":` + overflowGraph + `}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "must be finite", unroutable: true,
		},
		{
			name:   "schedule task times summing to +Inf",
			path:   "/v1/schedule",
			body:   `{"graph":` + overflowGraph + `,` + unbounded + `}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "must be finite", unroutable: true,
		},
		{
			name:   "simulate task times summing to +Inf",
			path:   "/v1/simulate",
			body:   `{"graph":` + overflowGraph + `,` + unbounded + `}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "must be finite", unroutable: true,
		},
		{
			name:   "register pool times summing to +Inf",
			path:   "/v1/graphs",
			body:   `{"graph":` + validGraph + `,"times":[[1e308,1],[1e308,1]]}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "must be finite", unroutable: true,
		},
		{
			name:   "register file sizes summing past int64",
			path:   "/v1/graphs",
			body:   `{"graph":` + bigFilesGraph + `}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "file sizes sum past", unroutable: true,
		},
		{
			name:   "schedule file sizes summing past int64",
			path:   "/v1/schedule",
			body:   `{"graph":` + bigFilesGraph + `,` + unbounded + `}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "file sizes sum past", unroutable: true,
		},
		{
			name:   "simulate file sizes summing past int64",
			path:   "/v1/simulate",
			body:   `{"graph":` + bigFilesGraph + `,` + unbounded + `}`,
			status: http.StatusBadRequest, code: serve.CodeBadRequest,
			contains: "file sizes sum past", unroutable: true,
		},
	}
	// Over the cap, the decoder decides: malformed first bytes are a 400,
	// a well-formed body a 413, whether or not the graph is memoized and
	// whether or not the client declared the length.
	for _, graph := range []struct{ name, json string }{{"memoized", validGraph}, {"unseen", unseenGraph}} {
		for _, noLength := range []bool{false, true} {
			suffix := fmt.Sprintf(" (%s graph, no length %v)", graph.name, noLength)
			cases = append(cases,
				rejection{
					name:   "over the cap with malformed first bytes" + suffix,
					path:   "/v1/schedule",
					body:   `{"graph":` + graph.json + `,"pools": x` + padding,
					status: http.StatusBadRequest, code: serve.CodeBadRequest,
					contains: "malformed JSON", unroutable: true, noLength: noLength,
				},
				rejection{
					name:   "over the cap and well-formed" + suffix,
					path:   "/v1/schedule",
					body:   `{"graph":` + graph.json + `,` + unbounded + `,` + padString + `}`,
					status: http.StatusRequestEntityTooLarge, code: serve.CodeTooLarge,
					contains: "exceeds", noLength: noLength,
				})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
			req.Header.Set("Content-Type", "application/json")
			if tc.noLength {
				req.ContentLength = -1
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, tc.status, w.Body.String())
			}
			e := decodeError(t, w)
			if e.Code != tc.code {
				t.Fatalf("code = %q, want %q", e.Code, tc.code)
			}
			if tc.contains != "" && !strings.Contains(e.Error, tc.contains) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.contains)
			}
			if key, _, err := serve.RoutingKey([]byte(tc.body)); tc.unroutable && err == nil {
				t.Fatalf("RoutingKey keyed the rejected body as %q", key)
			}
		})
	}
}

func TestUnknownRouteIs404JSON(t *testing.T) {
	h := serve.NewServer(serve.Config{}).Handler()
	w := post(t, h, "/v2/teleport", `{}`)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", w.Code)
	}
	if e := decodeError(t, w); e.Code != serve.CodeNotFound {
		t.Fatalf("code = %q, want %q", e.Code, serve.CodeNotFound)
	}
}

// FuzzRegisterGraph throws arbitrary bodies at the keyed endpoints
// (register, schedule, simulate, sweep): the server must always answer
// with valid JSON (NDJSON records on a sweep) and never a 5xx, whatever
// the payload. Each body is sent twice, and then once more with the
// whitespace inside its graph value changed: the second answer comes from
// the inline-graph digest memo, the third from a memo miss that finds the
// session warm, and both must be identical once wall-clock fields are
// zeroed. The seed corpus covers the interesting shapes (valid,
// truncated, cyclic, out-of-range references, huge numbers, deep
// nesting, whole inline requests per endpoint).
func FuzzRegisterGraph(f *testing.F) {
	for _, body := range []string{
		`{"graph":` + validGraph + `}`,
		`{"graph":{"tasks":[],"edges":[]}}`,
		`{"graph":{"tasks":[{"wblue":1e308,"wred":-0}],"edges":[]}}`,
		`{"graph":{"tasks":[{"wblue":1,"wred":1}],"edges":[{"from":0,"to":0,"file":1,"comm":0}]}}`,
		`{"graph":{"tasks":[{"wblue":1,"wred":1},{"wblue":1,"wred":1}],` +
			`"edges":[{"from":0,"to":1,"file":1,"comm":0},{"from":1,"to":0,"file":1,"comm":0}]}}`,
		`{"graph":{"tasks":[{"wblue":1,"wred":1}],"edges":[{"from":-1,"to":9,"file":-3,"comm":-1}]}}`,
		`{"graph":`,
		`[[[[[[[[`,
		`{"graph":{"tasks":[{"name":"` + strings.Repeat("x", 100) + `","wblue":0,"wred":0}]},"times":[[1]]}`,
		`{"graph":` + validGraph + `,"times":[[1,2],[3]]}`,
	} {
		f.Add(body, uint8(0))
	}
	pools := `"pools":[{"procs":1,"capacity":3},{"procs":1}]`
	f.Add(`{"graph":`+validGraph+`,"times":[[1,2,3],[2,1,1]]}`, uint8(0))
	f.Add(`{"graph":null}`, uint8(0))
	f.Add(`{"graph":`+validGraph+`,`+pools+`,"placements":true}`, uint8(1))
	f.Add(`{"graph":`+validGraph+`,`+pools+`,"scheduler":"memminmin","seed":3}`, uint8(1))
	f.Add(`{"graph":`+validGraph+`,"times":[[1,2,3],[2,1,1]],"pools":[{"procs":1},{"procs":1},{"procs":1}]}`, uint8(1))
	f.Add(`{"graph":`+validGraph+`,`+pools+`} junk`, uint8(1))
	f.Add(`{"graph":`+validGraph+`,`+pools+`,"policy":"eft"}`, uint8(2))
	f.Add(`{"graph":`+validGraph+`,`+pools+`,"alphas":[0.5,1],"schedulers":["memheft","memminmin"]}`, uint8(3))
	f.Add(`{"graph":`+validGraph+`,"platforms":[[{"procs":1},{"procs":1}]],"replay":"off"}`, uint8(3))
	// Task times summing to +Inf: a simulation answered with an empty 200
	// before validation bounded the totals.
	f.Add(`{"graph":{"tasks":[{"wblue":1e308,"wred":1e308},{"wblue":1e308,"wred":1e308}],`+
		`"edges":[{"from":0,"to":1,"file":1,"comm":0}]},"pools":[{"procs":1},{"procs":1}]}`, uint8(2))

	routes := [...]string{"/v1/graphs", "/v1/schedule", "/v1/simulate", "/v1/sweep"}
	h := serve.NewServer(serve.Config{MaxRequestBytes: 1 << 20}).Handler()
	f.Fuzz(func(t *testing.T, body string, route uint8) {
		path := routes[int(route)%len(routes)]
		send := func(body string) (int, []string) {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
			req.Header.Set(serve.RequestIDHeader, "fuzz-1")
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code >= 500 {
				t.Fatalf("5xx on fuzzed input: %d (body %q)", w.Code, body)
			}
			return w.Code, comparableRecords(t, w.Body.String(), body)
		}
		send(body)
		status, records := send(body)
		if respaced, ok := respaceGraph(body); ok {
			status2, records2 := send(respaced)
			if status2 != status || !slices.Equal(records2, records) {
				t.Fatalf("memo hit and miss disagree on %s %q:\n%d %q\n%d %q", path, body, status, records, status2, records2)
			}
		}
	})
}

// comparableRecords splits a JSON or NDJSON response into its records,
// checks each is valid JSON, and re-encodes each without the fields that vary
// between two answers to one request: wall-clock time, and a sweep
// point's replay accounting (which worker's session, warm or a fresh
// fork, ran a chain is up to the goroutine scheduler; the results are
// identical either way).
func comparableRecords(t *testing.T, resp, input string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(resp), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON response %q for input %q", resp, input)
		}
		delete(rec, "wall_us")
		delete(rec, "replayed_placements")
		delete(rec, "replay_truncated")
		b, _ := json.Marshal(rec)
		out = append(out, string(b))
	}
	return out
}

// respaceGraph re-encodes a valid JSON object body with different
// whitespace inside its graph value (every member encoding/json would
// read as "graph"), keeping every member and its order. ok is false when
// the body is not one valid JSON object or its graph has no whitespace to
// change.
func respaceGraph(body string) (string, bool) {
	if len(body) > 64<<10 {
		return "", false
	}
	dec := json.NewDecoder(strings.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return "", false
	}
	var b strings.Builder
	b.WriteByte('{')
	changed := false
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return "", false
		}
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			return "", false
		}
		if strings.EqualFold(tok.(string), "graph") {
			var re bytes.Buffer
			if json.Indent(&re, val, "", " ") == nil && !bytes.Equal(re.Bytes(), val) {
				val, changed = re.Bytes(), true
			} else if re.Reset(); json.Compact(&re, val) == nil && !bytes.Equal(re.Bytes(), val) {
				val, changed = re.Bytes(), true
			}
		}
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		key, _ := json.Marshal(tok)
		b.Write(key)
		b.WriteByte(':')
		b.Write(val)
	}
	if _, err := dec.Token(); err != nil {
		return "", false
	}
	if _, err := dec.Token(); err != io.EOF || !changed {
		return "", false
	}
	b.WriteByte('}')
	return b.String(), true
}

// TestReadRequestBodySizing pins ReadRequestBody's allocation: a declared
// length within the cap is read into exactly that much room plus
// bytes.MinRead, a declared length never presizes more than 1 MiB, and a
// body past the cap comes back as the capped bytes with
// *http.MaxBytesError.
func TestReadRequestBodySizing(t *testing.T) {
	body := strings.Repeat("x", 150<<10)
	for _, tc := range []struct {
		name     string
		declared int64
		limit    int64
		wantCap  int // 0: not pinned
	}{
		{"declared", int64(len(body)), 8 << 20, len(body) + bytes.MinRead},
		{"undeclared", -1, 8 << 20, 0},
		{"declared past 1 MiB", 4 << 20, 8 << 20, 1<<20 + bytes.MinRead},
		{"declared past the cap", 16 << 20, 8 << 20, 0},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body))
		req.ContentLength = tc.declared
		got, err := serve.ReadRequestBody(req, tc.limit)
		if err != nil || string(got) != body {
			t.Fatalf("%s: read %d bytes, %v", tc.name, len(got), err)
		}
		if tc.wantCap != 0 && cap(got) != tc.wantCap {
			t.Fatalf("%s: buffer capacity %d, want %d", tc.name, cap(got), tc.wantCap)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body))
	w := httptest.NewRecorder()
	req.Body = http.MaxBytesReader(w, req.Body, 64<<10)
	got, err := serve.ReadRequestBody(req, 64<<10)
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) || string(got) != body[:64<<10] {
		t.Fatalf("over the cap: read %d bytes, %v", len(got), err)
	}
}
