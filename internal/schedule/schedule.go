// Package schedule defines the dual-memory schedule object s = (sigma, tau,
// proc) of the paper and a validator that checks the three families of
// constraints of §3 (flow dependencies, resource exclusivity, memory
// capacity) exactly as the model defines them. The engines produce
// multi.Schedule; this type remains the view of the ILP oracle and of
// cmd/memsched's timeline, SVG and JSON output. Peaks and Live, the event
// sweep and tie rule of every memory check, are shared by both schedule
// types.
package schedule

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
)

// Eps is the tolerance used for floating-point comparisons between event
// times. All paper instances use integral times, so the tolerance only
// absorbs accumulated rounding in long schedules.
const Eps = 1e-9

// TaskPlacement records where and when one task runs.
type TaskPlacement struct {
	Start float64
	Proc  int // paper numbering: 0..P1-1 blue, P1..P1+P2-1 red
}

// Schedule is a complete mapping of a DAG onto a platform: a start time and
// processor per task (sigma, proc) and a start time per cross-memory
// communication (tau). CommStart entries for same-memory edges are NaN and
// ignored.
type Schedule struct {
	Graph    *dag.Graph
	Platform platform.Platform

	Tasks     []TaskPlacement // indexed by dag.TaskID
	CommStart []float64       // indexed by dag.EdgeID; NaN when intra-memory
}

// New returns an empty schedule skeleton for the given graph and platform,
// with all task starts unset (-1) and all communications NaN.
func New(g *dag.Graph, p platform.Platform) *Schedule {
	s := &Schedule{
		Graph:     g,
		Platform:  p,
		Tasks:     make([]TaskPlacement, g.NumTasks()),
		CommStart: make([]float64, g.NumEdges()),
	}
	for i := range s.Tasks {
		s.Tasks[i] = TaskPlacement{Start: -1, Proc: -1}
	}
	for i := range s.CommStart {
		s.CommStart[i] = math.NaN()
	}
	return s
}

// MemoryOf returns the memory on which task id executes.
func (s *Schedule) MemoryOf(id dag.TaskID) platform.Memory {
	return s.Platform.MemoryOf(s.Tasks[id].Proc)
}

// Duration returns the actual processing time W(i) of task id given its
// assigned processor.
func (s *Schedule) Duration(id dag.TaskID) float64 {
	t := s.Graph.Task(id)
	if s.MemoryOf(id) == platform.Blue {
		return t.WBlue
	}
	return t.WRed
}

// Finish returns sigma(i) + W(i).
func (s *Schedule) Finish(id dag.TaskID) float64 {
	return s.Tasks[id].Start + s.Duration(id)
}

// IsCross reports whether edge e connects tasks placed on different memories.
func (s *Schedule) IsCross(e dag.EdgeID) bool {
	edge := s.Graph.Edge(e)
	return s.MemoryOf(edge.From) != s.MemoryOf(edge.To)
}

// CommDuration returns COMM(i,j): the edge's communication time when it
// crosses memories and 0 otherwise.
func (s *Schedule) CommDuration(e dag.EdgeID) float64 {
	if s.IsCross(e) {
		return s.Graph.Edge(e).Comm
	}
	return 0
}

// Makespan returns the completion time of the last task.
func (s *Schedule) Makespan() float64 {
	ms := 0.0
	for i := range s.Tasks {
		if f := s.Finish(dag.TaskID(i)); f > ms {
			ms = f
		}
	}
	return ms
}

// residency is one interval during which a file occupies one memory.
type residency struct {
	mem      platform.Memory
	from, to float64
	size     int64
	edge     dag.EdgeID
}

// residencies expands the schedule into the set of file-residency intervals
// implied by the model of §3.2:
//
//   - an intra-memory edge (j,i) occupies mem(j) on [sigma(j), finish(i));
//   - a cross edge occupies mem(j) on [sigma(j), tau+C) — the source copy is
//     discarded when the transfer completes — and mem(i) on
//     [tau, finish(i)).
func (s *Schedule) residencies() []residency {
	g := s.Graph
	var rs []residency
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(dag.EdgeID(e))
		if edge.File == 0 {
			continue
		}
		srcMem := s.MemoryOf(edge.From)
		prodStart := s.Tasks[edge.From].Start
		consFinish := s.Finish(edge.To)
		if !s.IsCross(dag.EdgeID(e)) {
			rs = append(rs, residency{mem: srcMem, from: prodStart, to: consFinish, size: edge.File, edge: dag.EdgeID(e)})
			continue
		}
		tau := s.CommStart[e]
		rs = append(rs, residency{mem: srcMem, from: prodStart, to: tau + edge.Comm, size: edge.File, edge: dag.EdgeID(e)})
		rs = append(rs, residency{mem: srcMem.Other(), from: tau, to: consFinish, size: edge.File, edge: dag.EdgeID(e)})
	}
	return rs
}

// MemoryPeaks returns the peak usage of the blue and red memories over the
// whole schedule (the paper's Ms_blue and Ms_red): the largest usage at any
// instant a file is acquired, under the tie rule of Peaks — a file counts at
// t when it is acquired by t+Eps and released after t+Eps, the rule UsageAt
// and Validate apply — so the result does not depend on the order of the
// graph's edges.
func (s *Schedule) MemoryPeaks() (blue, red int64) {
	spans := make([]Span, len(s.Tasks))
	for i := range s.Tasks {
		id := dag.TaskID(i)
		spans[i] = Span{Pool: int(s.MemoryOf(id)), Start: s.Tasks[i].Start, Finish: s.Finish(id)}
	}
	peaks := Peaks(s.Graph, spans, s.CommStart, 2)
	return peaks[platform.Blue], peaks[platform.Red]
}

// Live reports whether a file resident on the half-open interval [from, to)
// occupies its memory at time t: it is acquired by t+Eps and not released
// by t+Eps. Every memory check of the model — UsageAt, Validate and Peaks —
// applies this one rule.
func Live(from, to, t float64) bool {
	x := t + Eps
	return from <= x && to > x
}

// UsageAt returns the amount of memory m occupied at time t: the files whose
// residency is Live at t.
func (s *Schedule) UsageAt(m platform.Memory, t float64) int64 {
	var sum int64
	for _, r := range s.residencies() {
		if r.mem == m && Live(r.from, r.to, t) {
			sum += r.size
		}
	}
	return sum
}

// Validate checks that the schedule satisfies every constraint of the model:
// completeness, flow dependencies (with communications), processor
// exclusivity, and the memory bounds of the platform. It returns nil for a
// valid schedule and a descriptive error for the first violation found.
func (s *Schedule) Validate() error {
	g, p := s.Graph, s.Platform
	if err := p.Validate(); err != nil {
		return err
	}
	if len(s.Tasks) != g.NumTasks() || len(s.CommStart) != g.NumEdges() {
		return fmt.Errorf("schedule: shape mismatch with graph")
	}
	// Completeness and placement sanity.
	for i := range s.Tasks {
		pl := s.Tasks[i]
		if pl.Proc < 0 || pl.Proc >= p.TotalProcs() {
			return fmt.Errorf("schedule: task %d assigned to invalid processor %d", i, pl.Proc)
		}
		if pl.Start < -Eps {
			return fmt.Errorf("schedule: task %d starts at negative time %g", i, pl.Start)
		}
	}
	// Flow constraints.
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(dag.EdgeID(e))
		srcFinish := s.Finish(edge.From)
		dstStart := s.Tasks[edge.To].Start
		if !s.IsCross(dag.EdgeID(e)) {
			if srcFinish > dstStart+Eps {
				return fmt.Errorf("schedule: edge %d->%d violates precedence: finish(%d)=%g > start(%d)=%g",
					edge.From, edge.To, edge.From, srcFinish, edge.To, dstStart)
			}
			continue
		}
		tau := s.CommStart[e]
		if math.IsNaN(tau) {
			return fmt.Errorf("schedule: cross edge %d->%d has no communication start", edge.From, edge.To)
		}
		if srcFinish > tau+Eps {
			return fmt.Errorf("schedule: communication %d->%d starts at %g before producer finishes at %g",
				edge.From, edge.To, tau, srcFinish)
		}
		if tau+edge.Comm > dstStart+Eps {
			return fmt.Errorf("schedule: communication %d->%d ends at %g after consumer starts at %g",
				edge.From, edge.To, tau+edge.Comm, dstStart)
		}
	}
	// Resource constraints: tasks sharing a processor must not overlap.
	byProc := make(map[int][]dag.TaskID)
	for i := range s.Tasks {
		byProc[s.Tasks[i].Proc] = append(byProc[s.Tasks[i].Proc], dag.TaskID(i))
	}
	for proc, ids := range byProc {
		// Sort by start, breaking ties by finish so that zero-duration
		// tasks sitting exactly on another task's boundary (legal in
		// the model) come first and do not trip the pairwise check.
		sort.Slice(ids, func(a, b int) bool {
			sa, sb := s.Tasks[ids[a]].Start, s.Tasks[ids[b]].Start
			if sa != sb {
				return sa < sb
			}
			return s.Finish(ids[a]) < s.Finish(ids[b])
		})
		for k := 1; k < len(ids); k++ {
			prev, cur := ids[k-1], ids[k]
			if s.Finish(prev) > s.Tasks[cur].Start+Eps {
				return fmt.Errorf("schedule: tasks %d and %d overlap on processor %d ([%g,%g) vs [%g,%g))",
					prev, cur, proc,
					s.Tasks[prev].Start, s.Finish(prev), s.Tasks[cur].Start, s.Finish(cur))
			}
		}
	}
	// Memory constraints, checked at every instant a file is acquired:
	// the start of every residency with from <= to (one that ends before
	// it starts is never Live and acquires nothing). These are the instants
	// Peaks evaluates, so the peaks are the tightest capacities accepted.
	rs := s.residencies()
	for _, r := range rs {
		if !(r.from <= r.to) {
			continue
		}
		var usage int64
		for _, o := range rs {
			if o.mem == r.mem && Live(o.from, o.to, r.from) {
				usage += o.size
			}
		}
		if usage > p.Capacity(r.mem) {
			return fmt.Errorf("schedule: %s memory over capacity at t=%g: %d > %d (opening file of edge %d)",
				r.mem, r.from, usage, p.Capacity(r.mem), r.edge)
		}
	}
	return nil
}
