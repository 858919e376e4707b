package multi

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/memfn"
)

// This file retains the pre-incremental implementations as executable
// reference oracles. They bypass every layer of the incremental engine
// that could conceivably change behaviour — no candidate memoization, no
// static-part caching, no session memos, ready-ness by scanning parents,
// per-edge staircase Reserve calls instead of batched splices, mid-slice
// deletes, linear min scans, ranks recomputed per call — so the
// golden-equivalence tests can assert that the optimized schedulers produce
// bit-identical schedules. They are exported (rather than test-only) so the
// benchmark harness can track the speedup of the incremental paths against
// them.

// naivePartial is the eager k-pool partial schedule of the reference
// oracles.
type naivePartial struct {
	in *Instance
	p  Platform

	sched     *Schedule
	free      []*memfn.Staircase // per pool
	availProc []float64
	assigned  []bool
	finish    []float64
}

func newNaivePartial(in *Instance, p Platform) *naivePartial {
	free := make([]*memfn.Staircase, p.NumPools())
	for k, pool := range p.Pools {
		free[k] = memfn.New(pool.Capacity)
	}
	return &naivePartial{
		in: in, p: p,
		sched:     NewSchedule(in, p),
		free:      free,
		availProc: make([]float64, p.TotalProcs()),
		assigned:  make([]bool, in.G.NumTasks()),
		finish:    make([]float64, in.G.NumTasks()),
	}
}

// ready re-derives readiness the naive way, by scanning parents.
func (st *naivePartial) ready(id dag.TaskID) bool {
	if st.assigned[id] {
		return false
	}
	for _, e := range st.in.G.In(id) {
		if !st.assigned[st.in.G.Edge(e).From] {
			return false
		}
	}
	return true
}

// evaluate computes EST/EFT of a ready task on pool k from scratch: the
// four components of §5.1, with "cross" meaning "parent on any other pool".
func (st *naivePartial) evaluate(id dag.TaskID, k int) Candidate {
	c := Candidate{Task: id, Pool: k, EST: inf, EFT: inf}
	lo, hi := st.p.ProcRange(k)
	if lo == hi {
		return c
	}
	resourceEST := inf
	for proc := lo; proc < hi; proc++ {
		if st.availProc[proc] < resourceEST {
			resourceEST = st.availProc[proc]
		}
	}
	precedenceEST := 0.0
	var crossFiles int64
	cmu := 0.0
	for _, e := range st.in.G.In(id) {
		edge := st.in.G.Edge(e)
		aft := st.finish[edge.From]
		if st.sched.PoolOf(edge.From) == k {
			if aft > precedenceEST {
				precedenceEST = aft
			}
			continue
		}
		if v := aft + edge.Comm; v > precedenceEST {
			precedenceEST = v
		}
		crossFiles += edge.File
		if edge.Comm > cmu {
			cmu = edge.Comm
		}
	}
	var outFiles int64
	for _, e := range st.in.G.Out(id) {
		outFiles += st.in.G.Edge(e).File
	}
	taskMemEST := st.free[k].EarliestFitLinear(0, crossFiles+outFiles)
	commMemEST := st.free[k].EarliestFitLinear(0, crossFiles)

	est := math.Max(resourceEST, precedenceEST)
	est = math.Max(est, taskMemEST)
	est = math.Max(est, commMemEST+cmu)
	if math.IsInf(est, 1) {
		return c
	}
	c.EST = est
	c.EFT = est + st.in.Time(id, k)
	c.CMu = cmu
	return c
}

// best returns the minimum-EFT candidate over all pools (lowest pool index
// wins ties).
func (st *naivePartial) best(id dag.TaskID) Candidate {
	b := Candidate{Task: id, Pool: -1, EST: inf, EFT: inf}
	for k := range st.p.Pools {
		c := st.evaluate(id, k)
		if c.EFT < b.EFT {
			b = c
		}
	}
	return b
}

// commit applies one placement with independent per-edge staircase updates.
func (st *naivePartial) commit(c Candidate) {
	id, k := c.Task, c.Pool
	w := st.in.Time(id, k)
	start, fin := c.EST, c.EST+w

	lo, hi := st.p.ProcRange(k)
	bestProc, bestAvail := -1, math.Inf(-1)
	for proc := lo; proc < hi; proc++ {
		if a := st.availProc[proc]; a <= start+Eps && a > bestAvail {
			bestProc, bestAvail = proc, a
		}
	}
	if bestProc < 0 {
		panic("multi: no free processor at committed start time")
	}
	st.sched.Tasks[id] = Placement{Start: start, Proc: bestProc}
	st.availProc[bestProc] = fin
	st.assigned[id] = true
	st.finish[id] = fin

	for _, e := range st.in.G.In(id) {
		edge := st.in.G.Edge(e)
		srcPool := st.sched.PoolOf(edge.From)
		if srcPool == k {
			st.free[k].Release(fin, edge.File)
			continue
		}
		st.sched.CommStart[edge.ID] = start - edge.Comm
		st.free[k].Reserve(start-c.CMu, fin, edge.File)
		st.free[srcPool].Release(start, edge.File)
	}
	for _, e := range st.in.G.Out(id) {
		st.free[k].Reserve(start, memfn.Inf, st.in.G.Edge(e).File)
	}
}

// MemHEFTReference is the naive k-pool implementation of Algorithm 1: ranks
// recomputed per call, every iteration restarts from the head of the
// priority list, re-derives ready-ness by scanning parents and re-evaluates
// every pool candidate of every visited task from scratch. It is the oracle
// MemHEFT is tested against and must not be "optimized"; the context and
// the memoization options are deliberately ignored.
func MemHEFTReference(_ context.Context, in *Instance, p Platform, opt Options) (*Schedule, error) {
	if err := in.Validate(p); err != nil {
		return nil, err
	}
	remaining, err := PriorityList(nil, in, opt.Seed)
	if err != nil {
		return nil, err
	}
	st := newNaivePartial(in, p)
	for len(remaining) > 0 {
		placed := false
		for index, id := range remaining {
			if !st.ready(id) {
				continue
			}
			c := st.best(id)
			if !c.Feasible() {
				continue
			}
			st.commit(c)
			remaining = append(remaining[:index], remaining[index+1:]...)
			placed = true
			break
		}
		if !placed {
			return st.sched, fmt.Errorf("%w (MemHEFT: %d of %d tasks unscheduled, first stuck task %d)",
				ErrMemoryBound, len(remaining), in.G.NumTasks(), remaining[0])
		}
	}
	return st.sched, nil
}

// MemMinMinReference is the naive k-pool implementation of Algorithm 2:
// every iteration evaluates every pool candidate of every ready task from
// scratch and picks the minimum-EFT pair by linear scan (ties towards the
// smaller task ID). It is the oracle MemMinMin is tested against and must
// not be "optimized"; the context and the memoization options are
// deliberately ignored.
func MemMinMinReference(_ context.Context, in *Instance, p Platform, opt Options) (*Schedule, error) {
	if err := in.Validate(p); err != nil {
		return nil, err
	}
	g := in.G
	st := newNaivePartial(in, p)
	pending := make([]int, g.NumTasks())
	var ready []dag.TaskID
	for i := 0; i < g.NumTasks(); i++ {
		pending[i] = len(g.In(dag.TaskID(i)))
		if pending[i] == 0 {
			ready = append(ready, dag.TaskID(i))
		}
	}
	scheduled := 0
	for len(ready) > 0 {
		bestIdx := -1
		var bestCand Candidate
		for idx, id := range ready {
			c := st.best(id)
			if !c.Feasible() {
				continue
			}
			if bestIdx < 0 || c.EFT < bestCand.EFT || (c.EFT == bestCand.EFT && id < bestCand.Task) {
				bestIdx, bestCand = idx, c
			}
		}
		if bestIdx < 0 {
			return st.sched, fmt.Errorf("%w (MemMinMin: %d of %d tasks unscheduled, %d ready tasks all blocked)",
				ErrMemoryBound, g.NumTasks()-scheduled, g.NumTasks(), len(ready))
		}
		st.commit(bestCand)
		scheduled++
		ready = append(ready[:bestIdx], ready[bestIdx+1:]...)
		for _, e := range g.Out(bestCand.Task) {
			child := g.Edge(e).To
			pending[child]--
			if pending[child] == 0 {
				ready = insertSorted(ready, child)
			}
		}
	}
	return st.sched, nil
}

// insertSorted inserts id into the ID-sorted slice.
func insertSorted(s []dag.TaskID, id dag.TaskID) []dag.TaskID {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = id
	return s
}
