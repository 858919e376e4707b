package ilp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/mip"
	"repro/internal/multi"
)

// Result is the outcome of solving the ILP.
type Result struct {
	Status   mip.Status
	Makespan float64         // meaningful when Status is Optimal or Feasible
	Schedule *multi.Schedule // decoded schedule, when available
	Nodes    int             // branch-and-bound nodes explored
}

// Solve builds and solves the ILP for in on the 2-pool platform p, then
// decodes the solution into a concrete schedule. The options bound the
// branch-and-bound effort; with a hit budget the result may be Feasible
// (incumbent, not proven optimal) or Unknown.
func Solve(in *multi.Instance, p multi.Platform, opt mip.Options) (*Result, error) {
	md, err := Build(in, p)
	if err != nil {
		return nil, err
	}
	return md.Solve(opt)
}

// Solve runs branch and bound on the assembled model and decodes the
// incumbent, if any.
func (md *Model) Solve(opt mip.Options) (*Result, error) {
	res, err := mip.Solve(&mip.Problem{LP: md.LP, Integer: md.Ints}, opt)
	if err != nil {
		return nil, err
	}
	out := &Result{Status: res.Status, Nodes: res.Nodes}
	if res.Status != mip.Optimal && res.Status != mip.Feasible {
		return out, nil
	}
	out.Makespan = res.Objective
	s, err := md.Decode(res.X)
	if err != nil {
		return nil, fmt.Errorf("ilp: decoding incumbent: %w", err)
	}
	out.Schedule = s
	return out, nil
}

// Decode converts an (integral) solution vector of the model into a
// schedule: pools come from the b variables, start times from t and tau,
// and processor indices are reassigned greedily inside each pool's
// ProcRange (the model's resource constraint (25) guarantees at most P-mu
// tasks of pool mu overlap at any instant, so the greedy assignment always
// succeeds).
func (md *Model) Decode(x []float64) (*multi.Schedule, error) {
	g, p := md.In.G, md.P
	s := multi.NewSchedule(md.In, p)
	n := g.NumTasks()

	type placed struct {
		id            dag.TaskID
		start, finish float64
		pool          int
	}
	tasks := make([]placed, n)
	for i := 0; i < n; i++ {
		pool := 0
		if x[md.vB[i]] > 0.5 {
			pool = 1
		}
		start := x[md.vT[i]]
		if start < 0 && start > -1e-6 {
			start = 0
		}
		tasks[i] = placed{id: dag.TaskID(i), start: start, finish: start + x[md.vW[i]], pool: pool}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := tasks[order[a]], tasks[order[b]]
		if ta.start != tb.start {
			return ta.start < tb.start
		}
		return ta.finish < tb.finish
	})
	avail := make([]float64, p.TotalProcs())
	for _, idx := range order {
		t := tasks[idx]
		lo, hi := p.ProcRange(t.pool)
		best, bestAvail := -1, math.Inf(-1)
		for proc := lo; proc < hi; proc++ {
			if avail[proc] <= t.start+1e-6 && avail[proc] > bestAvail {
				best, bestAvail = proc, avail[proc]
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("ilp: no free processor on pool %d for task %d at t=%g", t.pool, t.id, t.start)
		}
		avail[best] = t.finish
		s.Tasks[t.id] = multi.Placement{Start: t.start, Proc: best}
	}
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(dag.EdgeID(e))
		if tasks[edge.From].pool != tasks[edge.To].pool {
			s.CommStart[e] = x[md.vTau[e]]
		}
	}
	return s, nil
}

// NumVariables returns the number of LP variables in the model.
func (md *Model) NumVariables() int { return md.LP.NumVars }

// NumConstraints returns the number of LP rows in the model.
func (md *Model) NumConstraints() int { return len(md.LP.Constraints) }

// NumBinaries returns the number of integrality-constrained variables.
func (md *Model) NumBinaries() int { return len(md.Ints) }
