package multi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/dag"
	"repro/internal/schedule"
)

// Eps is the float tolerance for event-time comparisons, the one the
// dual-memory model uses.
const Eps = schedule.Eps

// Placement records where and when one task runs.
type Placement struct {
	Start float64
	Proc  int // global processor index
}

// Schedule is a complete mapping of an instance onto a multi-pool platform.
type Schedule struct {
	Inst     *Instance
	Platform Platform

	Tasks     []Placement
	CommStart []float64 // per edge; NaN when intra-pool
}

// NewSchedule returns an empty schedule skeleton.
func NewSchedule(in *Instance, p Platform) *Schedule {
	s := &Schedule{
		Inst:      in,
		Platform:  p,
		Tasks:     make([]Placement, in.G.NumTasks()),
		CommStart: make([]float64, in.G.NumEdges()),
	}
	for i := range s.Tasks {
		s.Tasks[i] = Placement{Start: -1, Proc: -1}
	}
	for e := range s.CommStart {
		s.CommStart[e] = math.NaN()
	}
	return s
}

// Clone returns an independent copy of the schedule sharing the immutable
// instance. The warm-start margin shortcut hands clones of a recorded
// schedule to callers so the stored original can never be mutated through a
// Result.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{
		Inst:      s.Inst,
		Platform:  s.Platform,
		Tasks:     append([]Placement(nil), s.Tasks...),
		CommStart: append([]float64(nil), s.CommStart...),
	}
}

// PoolOf returns the pool executing task id.
func (s *Schedule) PoolOf(id dag.TaskID) int { return s.Platform.PoolOf(s.Tasks[id].Proc) }

// Duration returns the actual processing time of task id.
func (s *Schedule) Duration(id dag.TaskID) float64 { return s.Inst.Time(id, s.PoolOf(id)) }

// Finish returns start + duration of task id.
func (s *Schedule) Finish(id dag.TaskID) float64 { return s.Tasks[id].Start + s.Duration(id) }

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

// IsCross reports whether edge e connects tasks on different pools.
func (s *Schedule) IsCross(e dag.EdgeID) bool {
	edge := s.Inst.G.Edge(e)
	return s.PoolOf(edge.From) != s.PoolOf(edge.To)
}

type residency struct {
	pool     int
	from, to float64
	size     int64
}

func (s *Schedule) residencies() []residency {
	g := s.Inst.G
	var rs []residency
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(dag.EdgeID(e))
		if edge.File == 0 {
			continue
		}
		src := s.PoolOf(edge.From)
		prodStart := s.Tasks[edge.From].Start
		consFinish := s.Finish(edge.To)
		if !s.IsCross(dag.EdgeID(e)) {
			rs = append(rs, residency{pool: src, from: prodStart, to: consFinish, size: edge.File})
			continue
		}
		tau := s.CommStart[e]
		rs = append(rs, residency{pool: src, from: prodStart, to: tau + edge.Comm, size: edge.File})
		rs = append(rs, residency{pool: s.PoolOf(edge.To), from: tau, to: consFinish, size: edge.File})
	}
	return rs
}

// MemoryPeaks returns the peak usage of every pool: the largest usage at
// any instant a file is acquired, under the tie rule of schedule.Peaks — a
// file counts at t when it is acquired by t+Eps and released after t+Eps,
// the rule Validate applies — so the result does not depend on the order of
// the graph's edges.
func (s *Schedule) MemoryPeaks() []int64 {
	spans := make([]schedule.Span, len(s.Tasks))
	for i := range s.Tasks {
		id := dag.TaskID(i)
		spans[i] = schedule.Span{Pool: s.PoolOf(id), Start: s.Tasks[i].Start, Finish: s.Finish(id)}
	}
	return schedule.Peaks(s.Inst.G, spans, s.CommStart, s.Platform.NumPools())
}

// Validate checks completeness, flow, resource and per-pool memory
// constraints, mirroring the dual-memory validator.
func (s *Schedule) Validate() error {
	g, p := s.Inst.G, s.Platform
	if err := p.Validate(); err != nil {
		return err
	}
	if err := s.Inst.Validate(p); err != nil {
		return err
	}
	for i := range s.Tasks {
		pl := s.Tasks[i]
		if pl.Proc < 0 || pl.Proc >= p.TotalProcs() {
			return fmt.Errorf("multi: task %d on invalid processor %d", i, pl.Proc)
		}
		if pl.Start < -Eps {
			return fmt.Errorf("multi: task %d starts at %g", i, pl.Start)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(dag.EdgeID(e))
		srcFinish := s.Finish(edge.From)
		dstStart := s.Tasks[edge.To].Start
		if !s.IsCross(dag.EdgeID(e)) {
			if srcFinish > dstStart+Eps {
				return fmt.Errorf("multi: edge %d->%d violates precedence", edge.From, edge.To)
			}
			continue
		}
		tau := s.CommStart[e]
		if math.IsNaN(tau) {
			return fmt.Errorf("multi: cross edge %d->%d has no communication start", edge.From, edge.To)
		}
		if srcFinish > tau+Eps || tau+edge.Comm > dstStart+Eps {
			return fmt.Errorf("multi: communication %d->%d out of window", edge.From, edge.To)
		}
	}
	byProc := map[int][]dag.TaskID{}
	for i := range s.Tasks {
		byProc[s.Tasks[i].Proc] = append(byProc[s.Tasks[i].Proc], dag.TaskID(i))
	}
	for proc, ids := range byProc {
		sort.Slice(ids, func(a, b int) bool {
			sa, sb := s.Tasks[ids[a]].Start, s.Tasks[ids[b]].Start
			if sa != sb {
				return sa < sb
			}
			return s.Finish(ids[a]) < s.Finish(ids[b])
		})
		for k := 1; k < len(ids); k++ {
			if s.Finish(ids[k-1]) > s.Tasks[ids[k]].Start+Eps {
				return fmt.Errorf("multi: tasks %d and %d overlap on processor %d", ids[k-1], ids[k], proc)
			}
		}
	}
	return s.checkMemory(s.residencies())
}

// checkMemory checks every pool's usage where schedule.Peaks evaluates it,
// at the start of every residency with from <= to, and reports the first
// such residency, in rs order, whose pool is over capacity. The usage at t
// is the size of the residencies Live at t. Only residencies with
// from <= to are ever live, and for those Live(from, to, t) holds iff
// from <= t+Eps and not to <= t+Eps, so the usage is the size acquired by
// t+Eps minus the size released by then. One sweep per pool, over its
// residencies sorted by start and by end, evaluates that at every start.
func (s *Schedule) checkMemory(rs []residency) error {
	byPool := make([][]int, s.Platform.NumPools())
	for i, r := range rs {
		if r.from <= r.to {
			byPool[r.pool] = append(byPool[r.pool], i)
		}
	}
	usage := make([]int64, len(rs))
	var byEnd []int
	for _, idx := range byPool {
		slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(rs[a].from, rs[b].from) })
		byEnd = append(byEnd[:0], idx...)
		slices.SortFunc(byEnd, func(a, b int) int { return cmp.Compare(rs[a].to, rs[b].to) })
		var live int64
		acq, rel := 0, 0
		for _, i := range idx {
			x := rs[i].from + Eps
			for ; acq < len(idx) && rs[idx[acq]].from <= x; acq++ {
				live += rs[idx[acq]].size
			}
			for ; rel < len(byEnd) && rs[byEnd[rel]].to <= x; rel++ {
				live -= rs[byEnd[rel]].size
			}
			usage[i] = live
		}
	}
	for i, r := range rs {
		if r.from <= r.to && usage[i] > s.Platform.Pools[r.pool].Capacity {
			return fmt.Errorf("multi: pool %d over capacity at t=%g: %d > %d", r.pool, r.from, usage[i], s.Platform.Pools[r.pool].Capacity)
		}
	}
	return nil
}
