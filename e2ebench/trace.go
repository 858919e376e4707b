package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/serve"
)

// span is one recorded interval of the traced run. Start and End are
// nanoseconds from the recorder's epoch; spans of one op share ReqID.
type span struct {
	ReqID  string `json:"request_id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Where  string `json:"where,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced run's spans in memory until the run ends. A
// nil recorder records nothing and wraps nothing.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// record turns recording on or off (a no-op without a recorder).
func (r *recorder) record(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// wrap times every request h serves as a span named name, attributed to
// where and keyed by the request's X-Request-ID. It is how the benchmark
// learns a handler's own time without instrumenting the program.
func (r *recorder) wrap(name, where string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := r.now()
		h.ServeHTTP(w, req)
		r.add(span{ReqID: req.Header.Get(serve.RequestIDHeader), Name: name, Where: where, Start: start, End: r.now()})
	})
}

// failoverSuffix is the router's per-hop request-id suffix.
var failoverSuffix = regexp.MustCompile(`-f[0-9]+$`)

// opSpans is every span of one traced op.
type opSpans struct {
	client  span
	router  *span
	handler *span
	phases  []span // the replica's own spans, rebased onto the handler
}

// collect joins the client spans of the ops in keys (request id -> graph
// id), the wrapped-handler spans and each replica's retained traces (GET
// /debug/traces, the same span names ?trace=1 returns) by request id.
func (r *recorder) collect(ctx context.Context, st *stack, keys map[string]string, routed bool) (map[string]*opSpans, error) {
	r.mu.Lock()
	raw := append([]span(nil), r.spans...)
	r.mu.Unlock()
	ops := map[string]*opSpans{}
	for _, s := range raw {
		if _, ok := keys[s.ReqID]; ok && s.Name == "loadgen.request" {
			ops[s.ReqID] = &opSpans{client: s}
		}
	}
	for _, s := range raw {
		id := failoverSuffix.ReplaceAllString(s.ReqID, "")
		op := ops[id]
		if op == nil {
			continue
		}
		s := s
		switch s.Name {
		case "router.handler":
			s.Parent = "loadgen.request"
			op.router = &s
		case "serve.handler":
			s.Parent = "loadgen.request"
			if routed {
				s.Parent = "router.handler"
			}
			op.handler = &s
		}
	}
	for i := range st.replicas {
		tr, err := st.traces(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("fetching replica %d traces: %w", i, err)
		}
		for _, caps := range tr.Routes {
			for _, c := range caps {
				op := ops[failoverSuffix.ReplaceAllString(c.RequestID, "")]
				if op == nil || op.handler == nil || op.handler.Where != st.replicaIDs[i] {
					continue
				}
				for _, sp := range c.Spans {
					parent := "serve.handler"
					if k := strings.LastIndexByte(sp.Name, '/'); k >= 0 {
						parent = "serve." + sp.Name[:k]
					}
					start := op.handler.Start + sp.StartMicros*int64(time.Microsecond)
					op.phases = append(op.phases, span{
						ReqID:  op.client.ReqID,
						Name:   "serve." + sp.Name,
						Parent: parent,
						Where:  op.handler.Where,
						Start:  start,
						End:    start + sp.DurMicros*int64(time.Microsecond),
					})
				}
			}
		}
	}
	return ops, nil
}

// topLevel reports whether a replica span is one of the request's
// top-level phases (admission, decode, resolve, engine, finalize, encode,
// sweep) rather than a sub-phase such as serve.engine/rank.
func topLevel(s span) bool { return s.Parent == "serve.handler" }

// selfTimes returns each span's duration minus the part its children
// cover, keyed by span name, for one op. The names on the blocking path
// partition the outermost server span, so their sum is what the spans
// attribute of the op's client-observed time.
func (o *opSpans) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if o.handler == nil {
		return out
	}
	var phases time.Duration
	for _, p := range o.phases {
		if !topLevel(p) {
			continue
		}
		phases += p.dur()
		var children time.Duration
		for _, c := range o.phases {
			if c.Parent == p.Name {
				children += c.dur()
			}
		}
		out[p.Name] += clamp(p.dur() - children)
		for _, c := range o.phases {
			if c.Parent == p.Name {
				out[c.Name] += c.dur()
			}
		}
	}
	out["serve.handler"] = clamp(o.handler.dur() - phases)
	if o.router != nil {
		out["router.handler"] = clamp(o.router.dur() - o.handler.dur())
	}
	return out
}

func clamp(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// writeSpans writes every span of the traced ops as NDJSON, parents
// named, for offline inspection.
func writeSpans(path string, ops map[string]*opSpans) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, o := range ops {
		all := []span{o.client}
		if o.router != nil {
			all = append(all, *o.router)
		}
		if o.handler != nil {
			all = append(all, *o.handler)
		}
		for _, s := range append(all, o.phases...) {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
