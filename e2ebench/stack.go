package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/cluster"
	"repro/serve"
)

// numReplicas is the replica count of the loopback cluster.
const numReplicas = 3

// listener is one loopback HTTP server the benchmark started.
type listener struct {
	url  string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its Serve loop to return.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if err != nil {
		_ = l.srv.Close()
	}
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// stack is the in-process service: three serve.Server replicas and one
// cluster.Router, each on its own loopback listener. With a span recorder
// every handler is wrapped so the benchmark can time it.
type stack struct {
	replicas   []*serve.Server
	replicaIDs []string
	listeners  []*listener // replicas first, router last
	router     *cluster.Router
	routerURL  string
	client     *http.Client
}

func (s *stack) replicaURL(i int) string { return s.listeners[i].url }

// startStack starts the replicas and the router and checks that the
// router sees every replica healthy. traceKeep sizes each replica's
// retained-trace ring (serve.Config.TraceKeep).
func startStack(rec *recorder, traceKeep int) (*stack, error) {
	s := &stack{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}}
	var reps []cluster.Replica
	for i := 0; i < numReplicas; i++ {
		id := fmt.Sprintf("r%d", i)
		srv := serve.NewServer(serve.Config{ReplicaID: id, TraceKeep: traceKeep})
		l, err := listen(rec.wrap("serve.handler", id, srv.Handler()))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("starting replica %s: %w", id, err)
		}
		s.replicas = append(s.replicas, srv)
		s.replicaIDs = append(s.replicaIDs, id)
		s.listeners = append(s.listeners, l)
		reps = append(reps, cluster.Replica{ID: id, URL: l.url})
	}
	rt, err := cluster.NewRouter(cluster.Config{Replicas: reps})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("building router: %w", err)
	}
	l, err := listen(rec.wrap("router.handler", "router", rt.Handler()))
	if err != nil {
		s.close()
		return nil, fmt.Errorf("starting router: %w", err)
	}
	s.router, s.routerURL = rt, l.url
	s.listeners = append(s.listeners, l)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rt.Health().ProbeAll(ctx)
	for _, st := range rt.Health().Snapshot() {
		if !st.Healthy || st.Draining {
			s.close()
			return nil, fmt.Errorf("replica %s is not healthy after start: %s", st.ID, st.LastErr)
		}
	}
	return s, nil
}

// close stops every listener and waits for each to finish.
func (s *stack) close() error {
	var first error
	for _, l := range s.listeners {
		if err := l.close(); err != nil && first == nil {
			first = err
		}
	}
	s.client.CloseIdleConnections()
	return first
}

// register posts a graph (and optional pool-time matrix) to one replica
// and checks that the id it returns is the expected one.
func (s *stack) register(ctx context.Context, replica int, raw json.RawMessage, times [][]float64, want string) error {
	body, err := json.Marshal(serve.RegisterRequest{Graph: raw, Times: times})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.replicaURL(replica)+"/v1/graphs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.DecodeAPIError(resp)
	}
	var reg serve.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		return err
	}
	if reg.ID != want {
		return fmt.Errorf("catalog drift: graph registered as %s, expected %s", reg.ID, want)
	}
	return nil
}

// sessionStats sums the session-cache counters of every replica.
func (s *stack) sessionStats() (hits, misses uint64) {
	for _, r := range s.replicas {
		st := r.Stats()
		hits += st.SessionHits
		misses += st.SessionMisses
	}
	return hits, misses
}

// spillovers reads the router's total spillover count off its /metrics.
func (s *stack) spillovers(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.routerURL+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var total uint64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "memschedd_router_spillovers_total{") {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}

// traces fetches one replica's retained request traces.
func (s *stack) traces(ctx context.Context, replica int) (serve.TracesResponse, error) {
	var out serve.TracesResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.replicaURL(replica)+"/debug/traces", nil)
	if err != nil {
		return out, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, serve.DecodeAPIError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}
