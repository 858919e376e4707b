package multi

import (
	"math"

	"repro/internal/dag"
)

// Eps is the tolerance used for floating-point comparisons between event
// times. All paper instances use integral times, so the tolerance only
// absorbs accumulated rounding in long schedules.
const Eps = 1e-9

// span is one task's execution as the residency model sees it: the memory
// pool that holds the task's files and the interval the task runs on.
type span struct {
	Pool          int
	Start, Finish float64
}

// Live reports whether a file resident on the half-open interval [from, to)
// occupies its memory at time t: it is acquired by t+Eps and not released
// by t+Eps. Every memory check of the model — Validate and Peaks — applies
// this one rule.
func Live(from, to, t float64) bool {
	x := t + Eps
	return from <= x && to > x
}

// Peaks returns the peak residency of each of the pools memories of a
// schedule of g whose task i runs as spans[i] and whose cross-pool edge e
// starts its transfer at commStart[e] (ignored for intra-pool edges). It is
// the implementation behind Schedule.MemoryPeaks.
//
// Tie rule: a file counts at time t when it is Live at t — acquired by
// t+Eps and not released by t+Eps — the rule Validate applies. A
// file acquired within Eps after t is already counted at t, and one
// released within Eps after t is already gone. The peak of a pool is its
// largest usage at an instant where some file is acquired, so it does not
// depend on the order of the graph's edges.
//
// The residencies of §3.2 are folded per task: one acquisition at each
// producer's start sized by its output files, one release at each
// consumer's finish sized by its input files, and for every cross edge an
// acquisition at tau on the consumer's pool and a release at tau+Comm on
// the producer's pool. A residency with from > to is never live and is
// left out; Validate does not check its start either. Because every kept
// residency has from <= to, the usage at t is
// A(t+Eps) - R(t+Eps), where A and R sum the acquisitions and releases at
// or before an instant, and one sweep over the two time-sorted event lists
// evaluates it at every acquisition. That sorts about 2n + 2·(cross edges)
// events instead of two per file residency.
func Peaks(g *dag.Graph, spans []span, commStart []float64, pools int) []int64 {
	acqs, rels := eventLists(g, spans, pools)
	acquire := make([]int64, len(spans)) // files task i acquires at its start
	release := make([]int64, len(spans)) // files task i releases at its finish
	edges := g.Edges()
	for e := range edges {
		edge := &edges[e]
		if edge.File == 0 {
			continue
		}
		src, dst := spans[edge.From], spans[edge.To]
		if src.Pool == dst.Pool {
			if src.Start <= dst.Finish {
				acquire[edge.From] += edge.File
				release[edge.To] += edge.File
			}
			continue
		}
		// The source copy lives until the transfer completes, the
		// destination copy from the transfer's start.
		tau := commStart[e]
		if end := tau + edge.Comm; src.Start <= end {
			acquire[edge.From] += edge.File
			rels[src.Pool] = append(rels[src.Pool], event{end, edge.File})
		}
		if tau <= dst.Finish {
			acqs[dst.Pool] = append(acqs[dst.Pool], event{tau, edge.File})
			release[edge.To] += edge.File
		}
	}
	for i, sp := range spans {
		if acquire[i] > 0 {
			acqs[sp.Pool] = append(acqs[sp.Pool], event{sp.Start, acquire[i]})
		}
		if release[i] > 0 {
			rels[sp.Pool] = append(rels[sp.Pool], event{sp.Finish, release[i]})
		}
	}
	peaks := make([]int64, pools)
	var buf []event
	for k := range peaks {
		var acq, rel []event
		acq, buf = sortByTime(acqs[k], buf)
		rel, buf = sortByTime(rels[k], buf)
		peaks[k] = sweepPeak(acq, rel)
	}
	return peaks
}

// event is a folded acquisition or release of size file units at time t.
type event struct {
	t    float64
	size int64
}

// eventLists returns empty acquisition and release lists for every pool,
// carved from one allocation with room for every event Peaks can add: a
// pool acquires at most once per task on it and once per edge into such a
// task, and releases at most once per task and once per edge out of one.
func eventLists(g *dag.Graph, spans []span, pools int) (acqs, rels [][]event) {
	nAcq := make([]int, pools)
	nRel := make([]int, pools)
	for i, sp := range spans {
		nAcq[sp.Pool] += 1 + len(g.In(dag.TaskID(i)))
		nRel[sp.Pool] += 1 + len(g.Out(dag.TaskID(i)))
	}
	backing := make([]event, 2*(len(spans)+g.NumEdges()))
	acqs = make([][]event, pools)
	rels = make([][]event, pools)
	for k := range acqs {
		acqs[k], backing = backing[:0:nAcq[k]], backing[nAcq[k]:]
		rels[k], backing = backing[:0:nRel[k]], backing[nRel[k]:]
	}
	return acqs, rels
}

// sweepPeak returns the largest A(t+Eps) - R(t+Eps) over the acquisition
// instants t, given the acquisitions and releases of one pool sorted by
// time. Both cursors only move forward, because the instants are visited
// in order.
func sweepPeak(acq, rel []event) int64 {
	var live, peak int64
	a, r := 0, 0
	for k := range acq {
		if k > 0 && acq[k].t == acq[k-1].t {
			continue // same instant, same usage
		}
		x := acq[k].t + Eps
		for ; a < len(acq) && acq[a].t <= x; a++ {
			live += acq[a].size
		}
		for ; r < len(rel) && rel[r].t <= x; r++ {
			live -= rel[r].size
		}
		peak = max(peak, live)
	}
	return peak
}

// sortByTime sorts evs by time and returns the sorted slice together with
// the scratch buffer for the next call; the result aliases either evs or
// buf. It is a least-significant-digit radix sort, one byte per pass, on
// the order-preserving uint64 image of the times, skipping every pass whose
// byte is the same for all events. Times must not be NaN.
func sortByTime(evs, buf []event) (sorted, scratch []event) {
	if len(evs) == 0 {
		return evs, buf
	}
	var counts [8][256]int
	for _, e := range evs {
		k := timeKey(e.t)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	if cap(buf) < len(evs) {
		buf = make([]event, len(evs))
	}
	src, dst := evs, buf[:len(evs)]
	first := timeKey(evs[0].t)
	for d := range counts {
		c := &counts[d]
		if c[byte(first>>(8*d))] == len(src) {
			continue // every key shares this byte
		}
		sum := 0
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, e := range src {
			b := byte(timeKey(e.t) >> (8 * d))
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// timeKey maps a time to a uint64 whose unsigned order is the float order:
// negative times have every bit flipped, others only the sign bit.
func timeKey(t float64) uint64 {
	b := math.Float64bits(t)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}
