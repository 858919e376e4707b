// Package exact computes reference solutions for the memory-constrained
// scheduling problem: a makespan lower bound, and a branch-and-bound search
// over the space of eager list schedules with as-late-as-possible
// communications — the decision space that MemHEFT and MemMinMin draw from.
//
// The search stands in for the CPLEX-solved ILP of the paper on instances the
// homemade MILP solver cannot handle (see DESIGN.md, "Substitutions"): it is
// exact over its space, which contains every schedule either heuristic can
// produce, so it lower-bounds their makespans and upper-bounds their failure
// region, which is exactly the role the "Optimal" curve plays in Figure 10.
// On tiny instances the tests cross-check it against the full ILP.
package exact

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/dag"
	"repro/internal/multi"
)

// minTime returns a task's best-case processing time over the pools.
func minTime(row []float64) float64 {
	w := row[0]
	for _, x := range row[1:] {
		w = min(w, x)
	}
	return w
}

// LowerBound returns a makespan lower bound valid for every schedule on the
// platform, memory aside: the maximum of the critical path with best-case
// processing times (communications cost nothing: a schedule may keep a
// path on one pool) and the aggregate best-case work spread over all
// processors. It is the "Lower bound" curve of Figure 11.
func LowerBound(in *multi.Instance, p multi.Platform) (float64, error) {
	g := in.G
	order, err := g.TopologicalOrder()
	if err != nil {
		return 0, err
	}
	finish := make([]float64, g.NumTasks())
	cp := 0.0
	for _, id := range order {
		start := 0.0
		for _, e := range g.In(id) {
			if f := finish[g.Edge(e).From]; f > start {
				start = f
			}
		}
		finish[id] = start + minTime(in.Times[id])
		if finish[id] > cp {
			cp = finish[id]
		}
	}
	var work float64
	for _, row := range in.Times {
		work += minTime(row)
	}
	work /= float64(p.TotalProcs())
	return math.Max(cp, work), nil
}

// Status classifies a search outcome.
type Status int

// Search outcomes. Feasible means a budget ran out with an incumbent in
// hand; Unknown means it ran out before finding any complete schedule.
const (
	Optimal Status = iota
	Feasible
	Infeasible
	Unknown
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	default:
		return "unknown"
	}
}

// Options bounds the search effort.
type Options struct {
	MaxNodes int // 0 means DefaultMaxNodes
	// Timeout is a convenience wrapper around context cancellation: when
	// positive, Solve derives a context.WithTimeout from its context. An
	// expired budget is not an error — the search reports the incumbent
	// with a Feasible/Unknown status, exactly like an exhausted node
	// budget.
	Timeout time.Duration
	// Incumbent seeds the search with a known feasible schedule (e.g. a
	// heuristic result); branches that cannot beat it are pruned.
	Incumbent *multi.Schedule
	// FeasibilityOnly stops at the first complete schedule and disables
	// bound pruning.
	FeasibilityOnly bool
	// Caches, when non-nil, serves the per-instance memos (statics,
	// validation) owned by the caller — typically a memsched.Session.
	Caches *multi.Caches
}

// DefaultMaxNodes is the node budget used when Options.MaxNodes is zero.
const DefaultMaxNodes = 500000

// Result reports the outcome of a search.
type Result struct {
	Status   Status
	Makespan float64         // makespan of Schedule; +inf when none
	Schedule *multi.Schedule // best complete schedule known (may be the seeded incumbent)
	Nodes    int
}

type searcher struct {
	p        multi.Platform
	bottom   []float64 // per task: min-W critical path to a sink, inclusive
	best     float64
	bestSch  *multi.Schedule
	improved bool
	nodes    int
	maxNodes int
	ctx      context.Context
	feasOnly bool
	stopped  bool

	// pool holds exhausted Partial nodes for reuse: dfs clones into them
	// via CloneInto instead of allocating a full new state per node.
	pool []*multi.Partial
	// movesStack holds one reusable candidate buffer per search depth.
	movesStack [][]multi.Candidate
}

// getClone copies st into a pooled Partial (or a fresh one when the pool is
// empty).
func (s *searcher) getClone(st *multi.Partial) *multi.Partial {
	var dst *multi.Partial
	if n := len(s.pool); n > 0 {
		dst, s.pool = s.pool[n-1], s.pool[:n-1]
	}
	return st.CloneInto(dst)
}

// putClone returns an exhausted node to the pool.
func (s *searcher) putClone(st *multi.Partial) {
	s.pool = append(s.pool, st)
}

// Solve runs the branch-and-bound search for in on p. The context cancels
// the search cooperatively (checked every 1024 nodes): a cancelled search
// is not an error, it reports the best incumbent found so far with a
// Feasible or Unknown status, exactly like an exhausted node budget.
func Solve(ctx context.Context, in *multi.Instance, p multi.Platform, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	if err := opt.Caches.Validate(in, p.NumPools()); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bottom, err := bottomLevels(in)
	if err != nil {
		return nil, err
	}
	s := &searcher{
		p: p, bottom: bottom,
		best:     math.Inf(1),
		maxNodes: opt.MaxNodes,
		ctx:      ctx,
		feasOnly: opt.FeasibilityOnly,
	}
	if s.maxNodes <= 0 {
		s.maxNodes = DefaultMaxNodes
	}
	if opt.Incumbent != nil {
		s.bestSch = opt.Incumbent
		s.best = opt.Incumbent.Makespan()
	}
	s.dfs(multi.NewPartialCached(in, p, opt.Caches), 0)

	res := &Result{Makespan: s.best, Schedule: s.bestSch, Nodes: s.nodes}
	switch {
	case s.bestSch == nil && s.stopped:
		res.Status = Unknown
	case s.bestSch == nil:
		res.Status = Infeasible
	case s.stopped && !(s.feasOnly && s.improved):
		res.Status = Feasible
	case s.feasOnly:
		res.Status = Feasible
	default:
		res.Status = Optimal
	}
	return res, nil
}

// bottomLevels computes, per task, the longest min-W path from the task to a
// sink (inclusive). Used as an admissible completion estimate.
func bottomLevels(in *multi.Instance) ([]float64, error) {
	g := in.G
	rev, err := g.ReverseTopologicalOrder()
	if err != nil {
		return nil, err
	}
	bl := make([]float64, g.NumTasks())
	for _, id := range rev {
		w := minTime(in.Times[id])
		best := 0.0
		for _, e := range g.Out(id) {
			if v := bl[g.Edge(e).To]; v > best {
				best = v
			}
		}
		bl[id] = w + best
	}
	return bl, nil
}

func (s *searcher) budgetExceeded() bool {
	if s.stopped {
		return true
	}
	if s.nodes > s.maxNodes {
		s.stopped = true
		return true
	}
	if s.nodes%1024 == 0 && s.ctx.Err() != nil {
		s.stopped = true
		return true
	}
	return false
}

// dfs explores all completions of st depth-first. depth indexes the
// reusable per-level candidate buffer.
func (s *searcher) dfs(st *multi.Partial, depth int) {
	s.nodes++
	if s.budgetExceeded() {
		return
	}
	if st.Done() {
		ms := st.MakespanSoFar()
		if ms < s.best || s.bestSch == nil {
			s.best = ms
			s.bestSch = st.Schedule().Clone()
			s.improved = true
		}
		if s.feasOnly {
			s.stopped = true
		}
		return
	}

	if depth >= len(s.movesStack) {
		s.movesStack = append(s.movesStack, nil)
	}
	moves := s.movesStack[depth][:0]
	for _, id := range st.ReadyTasks() {
		for k := 0; k < s.p.NumPools(); k++ {
			if c := st.Evaluate(id, k); c.Feasible() {
				moves = append(moves, c)
			}
		}
	}
	s.movesStack[depth] = moves
	// Explore small EFT first: good schedules early mean strong pruning.
	sort.Slice(moves, func(a, b int) bool { return moves[a].EFT < moves[b].EFT })
	for _, mv := range moves {
		child := s.getClone(st)
		child.Commit(mv)
		if !s.feasOnly && lbOf(child, s.bottom) >= s.best-multi.Eps {
			s.putClone(child)
			continue // cannot beat the incumbent
		}
		s.dfs(child, depth+1)
		s.putClone(child)
		if s.stopped {
			return
		}
	}
}

// lbOf computes an admissible lower bound for a partial schedule: the
// makespan so far, and for every unassigned task a precedence-only start
// estimate plus its bottom level.
func lbOf(st *multi.Partial, bottom []float64) float64 {
	lb := st.MakespanSoFar()
	g := st.Schedule().Inst.G
	for i := 0; i < g.NumTasks(); i++ {
		id := dag.TaskID(i)
		if st.Assigned(id) {
			continue
		}
		start := 0.0
		for _, e := range g.In(id) {
			from := g.Edge(e).From
			if st.Assigned(from) {
				if f := st.Finish(from); f > start {
					start = f
				}
			}
		}
		if v := start + bottom[id]; v > lb {
			lb = v
		}
	}
	return lb
}

// CheckFeasible reports whether any eager list schedule fits the memory bounds,
// within the given budget. The returned status distinguishes a proven "no"
// (Infeasible) from an exhausted budget (Unknown).
func CheckFeasible(ctx context.Context, in *multi.Instance, p multi.Platform, opt Options) (bool, Status, error) {
	opt.FeasibilityOnly = true
	opt.Incumbent = nil
	res, err := Solve(ctx, in, p, opt)
	if err != nil {
		return false, Unknown, err
	}
	return res.Schedule != nil, res.Status, nil
}

// Enumerate exhaustively lists the makespans of every complete eager list
// schedule of a tiny graph (guarded at 8 tasks); tests use it to validate
// the search.
func Enumerate(in *multi.Instance, p multi.Platform) ([]float64, error) {
	if n := in.G.NumTasks(); n > 8 {
		return nil, fmt.Errorf("exact: Enumerate is restricted to <= 8 tasks, got %d", n)
	}
	var out []float64
	var rec func(st *multi.Partial)
	rec = func(st *multi.Partial) {
		if st.Done() {
			out = append(out, st.MakespanSoFar())
			return
		}
		for _, id := range st.ReadyTasks() {
			for k := 0; k < p.NumPools(); k++ {
				c := st.Evaluate(id, k)
				if !c.Feasible() {
					continue
				}
				child := st.Clone()
				child.Commit(c)
				rec(child)
			}
		}
	}
	rec(multi.NewPartial(in, p))
	return out, nil
}
