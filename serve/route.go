package serve

import (
	"encoding/json"
	"errors"
	"fmt"

	memsched "repro"
)

// ErrNoRoutingKey reports a request body that carries neither a graph id
// nor an inline graph (a null "graph" counts as none) — nothing to route
// by. Such a request is invalid on every replica, so a router may send it
// anywhere and let the replica produce the structured 400.
var ErrNoRoutingKey = errors.New("serve: request has no graph_id or graph to route by")

// keyedRequest is the field subset shared by every keyed /v1 POST body
// (register, schedule, simulate, sweep): the graph reference a
// cache-affinity router shards on.
type keyedRequest struct {
	GraphID string          `json:"graph_id"`
	Graph   json.RawMessage `json:"graph"`
	Times   [][]float64     `json:"times"`
}

// RoutingKey extracts the cache-affinity key of a keyed /v1 request body:
// the graph id when the request references a registered graph, or the
// canonical graph hash — identical to the id registering the graph would
// return — when the graph is inlined. Every replica and every router
// computing RoutingKey over the same body agrees on the key, which is what
// lets a consistent-hash ring pin each graph's session cache to one
// replica with no coordination.
//
// portable reports whether the request carries its graph inline: any
// replica can serve it from a cold cache. A graph_id-only request is
// pinned — only the replica holding the registration can answer, so a
// load balancer must not spill it to a second-choice replica (that would
// trade a warm hit for a guaranteed 404).
//
// A malformed body or an invalid graph returns an error; the caller should
// forward such requests anyway (unrouted) so the serving replica produces
// the structured 4xx the client expects.
//
// RoutingKey is the cold, stateless oracle: every call decodes the whole
// body and rebuilds the session. DigestMemo.RoutingKey puts a memo of
// validated graph bytes in front of it and agrees with it wherever it
// succeeds.
func RoutingKey(body []byte) (key string, portable bool, err error) {
	var req keyedRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", false, fmt.Errorf("serve: decoding routing key: %w", err)
	}
	if req.GraphID != "" {
		return req.GraphID, false, nil
	}
	if !hasGraph(req.Graph) {
		return "", false, ErrNoRoutingKey
	}
	key, err = GraphKey(req.Graph, req.Times)
	return key, err == nil, err
}

// GraphKey computes the canonical content hash of an inline graph (wire
// format of memsched.Graph) plus an optional pool-time matrix — the value
// POST /v1/graphs would return as the graph's id. It validates the graph
// exactly as registration would, so an invalid (or null) graph errs here
// instead of routing. Like RoutingKey it is cold and stateless: it keeps
// no memo, so every call pays the full decode, validation and hash.
func GraphKey(raw json.RawMessage, times [][]float64) (string, error) {
	if !hasGraph(raw) {
		return "", ErrNoRoutingKey
	}
	g := memsched.NewGraph()
	if err := json.Unmarshal(raw, g); err != nil {
		return "", fmt.Errorf("serve: malformed graph: %w", err)
	}
	var opts []memsched.SessionOption
	if times != nil {
		opts = append(opts, memsched.WithPoolTimes(times))
	}
	sess, err := memsched.NewSession(g, opts...)
	if err != nil {
		return "", fmt.Errorf("serve: invalid graph: %w", err)
	}
	return sess.GraphHash(), nil
}
