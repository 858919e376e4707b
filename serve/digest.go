package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/memo"
)

// graphDigest keys an inline graph by its wire bytes: the SHA-256 of the
// raw "graph" value plus the decoded "times" matrix (see digestOf).
type graphDigest [sha256.Size]byte

// digestOf returns the digest of an inline graph's raw value bytes and its
// pool-time matrix (nil = absent). Every length is framed and absence is
// flagged, so no two (graph, times) pairs hash the same input.
func digestOf(graph []byte, times [][]float64) graphDigest {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(graph)))
	h.Write(graph)
	if times == nil {
		put(0)
	} else {
		put(1)
		put(uint64(len(times)))
		for _, row := range times {
			put(uint64(len(row)))
			for _, w := range row {
				put(math.Float64bits(w))
			}
		}
	}
	var d graphDigest
	h.Sum(d[:0])
	return d
}

// DigestMemo remembers which canonical graph hash the bytes of an inline
// graph validated to, so a client that re-sends the same graph inline is
// keyed by one SHA-256 pass over its bytes instead of a full decode,
// validation and canonical hash. The key is digestOf: the raw "graph"
// value bytes plus the decoded "times" matrix. Only graphs that validated
// are ever stored, and a byte-different encoding of a stored graph is
// simply a miss that stores a second entry under the same hash. The memo
// is bounded (least recently used entries go first) and safe for
// concurrent use.
//
// A replica keeps one in front of its session cache; a cluster router
// keeps one in front of RoutingKey (see DigestMemo.RoutingKey).
type DigestMemo struct {
	mu  sync.Mutex
	lru *memo.LRU[graphDigest, string]

	hits, misses atomic.Uint64
}

// NewDigestMemo returns an empty memo holding at most size digests
// (size < 1 is treated as 1).
func NewDigestMemo(size int) *DigestMemo {
	return &DigestMemo{lru: memo.NewLRU[graphDigest, string](size)}
}

func (m *DigestMemo) get(d graphDigest) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Get(d)
}

func (m *DigestMemo) put(d graphDigest, key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lru.Put(d, key)
}

// RoutingKey returns exactly what RoutingKey(body) returns wherever that
// succeeds, answering byte-identical inline graphs from the memo. It
// locates the top-level "graph_id", "graph" and "times" members with a
// byte scan that decodes nothing (only "times", when present, is
// decoded). When the scan finds an inline graph and no graph id, a digest
// hit returns the stored key as portable; a miss runs RoutingKey and
// stores the digest only when that succeeded. Everything else — graph_id
// requests, and every body encoding/json could read differently from the
// scan — goes to RoutingKey unchanged.
//
// The one difference from RoutingKey: a malformed body whose graph bytes
// match a validated graph gets that graph's key instead of an error, so a
// router sends it to the graph's owner instead of round-robin. The
// replica still answers it with the same 400.
//
// Hits counts the keys answered from the memo, misses the inline-graph
// keys RoutingKey had to compute; see Counts.
func (m *DigestMemo) RoutingKey(body []byte) (key string, portable bool, err error) {
	d, scanned := inlineDigest(body)
	if scanned {
		if key, hit := m.get(d); hit {
			m.hits.Add(1)
			return key, true, nil
		}
	}
	key, portable, err = RoutingKey(body)
	if err == nil && portable {
		if scanned {
			m.put(d, key)
		}
		m.misses.Add(1)
	}
	return key, portable, err
}

// inlineDigest digests the inline graph of a keyed request body. ok is
// false unless scanKeyed read the body and found a graph and no graph id,
// and the times member (if any) decodes.
func inlineDigest(body []byte) (d graphDigest, ok bool) {
	sp, ok := scanKeyed(body)
	if !ok || len(sp.graphID) > 0 || sp.graph == nil {
		return d, false
	}
	var times [][]float64
	if sp.times != nil && json.Unmarshal(sp.times, &times) != nil {
		return d, false
	}
	return digestOf(sp.graph, times), true
}

// Counts returns how many keys RoutingKey answered from the memo (hits)
// and how many inline-graph keys it computed cold (misses).
func (m *DigestMemo) Counts() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// keyedSpans are the raw top-level members of a keyed request body that
// scanKeyed found; nil means absent.
type keyedSpans struct {
	graphID []byte // the string's contents, quotes stripped
	graph   []byte // the raw value
	times   []byte // the raw value
}

// scanKeyed finds the top-level "graph_id", "graph" and "times" members of
// body by a string- and depth-aware byte scan. ok is false whenever
// encoding/json could read the body differently: the top level is not an
// object; a key has an escape or a non-ASCII byte; a key matches one of
// the three only case-insensitively (encoding/json folds case); one of the
// three appears twice (encoding/json keeps the last); graph_id is not a
// string of plain ASCII without escapes (encoding/json rewrites invalid
// UTF-8); graph is null; or anything but whitespace follows the object.
//
// The scan does not validate what it skips: on a valid body its spans are
// exactly encoding/json's, on an invalid one they are merely some spans.
func scanKeyed(body []byte) (sp keyedSpans, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return sp, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return sp, skipSpace(body, i+1) == len(body)
	}
	for {
		if i == len(body) || body[i] != '"' {
			return sp, false
		}
		end := plainStringEnd(body, i)
		if end < 0 {
			return sp, false
		}
		name := body[i+1 : end-1]
		i = skipSpace(body, end)
		if i == len(body) || body[i] != ':' {
			return sp, false
		}
		i = skipSpace(body, i+1)
		end = valueEnd(body, i)
		if end < 0 {
			return sp, false
		}
		var slot *[]byte
		switch string(name) {
		case "graph_id":
			slot = &sp.graphID
		case "graph":
			slot = &sp.graph
		case "times":
			slot = &sp.times
		default:
			for _, field := range [...]string{"graph_id", "graph", "times"} {
				if bytes.EqualFold(name, []byte(field)) {
					return sp, false
				}
			}
		}
		if slot != nil {
			if *slot != nil {
				return sp, false
			}
			*slot = body[i:end]
		}
		i = skipSpace(body, end)
		if i == len(body) {
			return sp, false
		}
		if body[i] == '}' {
			break
		}
		if body[i] != ',' {
			return sp, false
		}
		i = skipSpace(body, i+1)
	}
	if skipSpace(body, i+1) != len(body) {
		return sp, false
	}
	if sp.graphID != nil {
		if sp.graphID[0] != '"' || plainStringEnd(sp.graphID, 0) != len(sp.graphID) {
			return sp, false
		}
		sp.graphID = sp.graphID[1 : len(sp.graphID)-1]
	}
	if string(sp.graph) == "null" {
		return sp, false
	}
	return sp, true
}

// skipSpace returns the index of the first non-whitespace byte of b at or
// after i (len(b) if none).
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// plainStringEnd returns the index just past the string starting at b[i]
// (a '"'), or -1 unless it is closed and every byte inside is printable
// ASCII other than a backslash — a string encoding/json decodes to exactly
// its raw contents.
func plainStringEnd(b []byte, i int) int {
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return j + 1
		case c == '\\', c < 0x20, c >= 0x80:
			return -1
		}
	}
	return -1
}

// valueEnd returns the index just past the JSON value starting at b[i], or
// -1 if there is none. Strings are skipped escape-aware, containers by
// bracket depth (so brackets inside strings never count), and scalars run
// to the next delimiter.
func valueEnd(b []byte, i int) int {
	if i == len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		return stringEnd(b, i)
	case '{', '[':
		depth := 0
		for j := i; j < len(b); j++ {
			switch b[j] {
			case '"':
				end := stringEnd(b, j)
				if end < 0 {
					return -1
				}
				j = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return j + 1
				}
			}
		}
		return -1
	case ',', ':', '}', ']':
		return -1
	}
	j := i
	for j < len(b) {
		switch b[j] {
		case ' ', '\t', '\n', '\r', ',', '}', ']', ':', '"', '{', '[':
			return j
		}
		j++
	}
	return j
}

// stringEnd returns the index just past the string starting at b[i] (a
// '"'), skipping backslash escapes, or -1 if it is never closed.
func stringEnd(b []byte, i int) int {
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '\\':
			j++
		case '"':
			return j + 1
		}
	}
	return -1
}
