// Package core holds the tests of the dual-memory engine that the k-pool
// engine of internal/multi replaced: the paper's machine is its 2-pool
// case (pool 0 blue, pool 1 red). The tests run on that engine through the
// adapters below, over FromDual instances and FromDualPlatform platforms,
// and keep this package path so their names stay stable.
package core

import (
	"context"
	"sync"

	"repro/internal/dag"
	"repro/internal/multi"
	"repro/internal/platform"
)

// tctx is the shared background context of the package tests.
var tctx = context.Background()

// blue and red are the pool indices of the dual model's two memories.
const (
	blue = int(platform.Blue)
	red  = int(platform.Red)
)

// Options tunes a heuristic run.
type Options = multi.Options

// ErrMemoryBound is the engine's memory-bound sentinel.
var ErrMemoryBound = multi.ErrMemoryBound

// Func is a heuristic over a dual-memory graph and platform.
type Func func(ctx context.Context, g *dag.Graph, p platform.Platform, opt Options) (*multi.Schedule, error)

// onDual runs fn on the 2-pool instance and platform of (g, p); oblivious
// heuristics run on the platform's unbounded twin.
func onDual(fn multi.Func, oblivious bool) Func {
	return func(ctx context.Context, g *dag.Graph, p platform.Platform, opt Options) (*multi.Schedule, error) {
		pp := multi.FromDualPlatform(p)
		if oblivious {
			pp = pp.Unbounded()
		}
		return fn(ctx, instanceOf(g), pp, opt)
	}
}

// The heuristics of the paper, the insertion ablation and the eager
// reference oracles, on dual-memory inputs.
var (
	HEFT               = onDual(multi.MemHEFT, true)
	MinMin             = onDual(multi.MemMinMin, true)
	MemHEFT            = onDual(multi.MemHEFT, false)
	MemMinMin          = onDual(multi.MemMinMin, false)
	MemHEFTInsertion   = onDual(multi.MemHEFTInsertion, false)
	MemHEFTReference   = onDual(multi.MemHEFTReference, false)
	MemMinMinReference = onDual(multi.MemMinMinReference, false)
)

// Algorithms is the scheduler registry of memsched.Schedulers on
// dual-memory inputs.
var Algorithms = map[string]Func{
	"heft":              HEFT,
	"minmin":            MinMin,
	"memheft":           MemHEFT,
	"memminmin":         MemMinMin,
	"memheft-insertion": MemHEFTInsertion,
}

// instances keeps one FromDual instance per graph, so a cache set shared
// across calls on one graph stays keyed to one instance, as a session's is.
var instances sync.Map // *dag.Graph -> *multi.Instance

// instanceOf returns the 2-pool instance of g, rebuilt when g grew tasks.
func instanceOf(g *dag.Graph) *multi.Instance {
	if v, ok := instances.Load(g); ok {
		if in := v.(*multi.Instance); len(in.Times) == g.NumTasks() {
			return in
		}
	}
	in := multi.FromDual(g)
	instances.Store(g, in)
	return in
}

// PriorityList is MemHEFT's priority list of g.
func PriorityList(ctx context.Context, g *dag.Graph, seed int64) ([]dag.TaskID, error) {
	return multi.PriorityList(ctx, instanceOf(g), seed)
}

// NewPartial returns an empty partial schedule of g on p.
func NewPartial(g *dag.Graph, p platform.Platform) *multi.Partial {
	return multi.NewPartial(instanceOf(g), multi.FromDualPlatform(p))
}

// peaks returns the blue and red peaks of a 2-pool schedule.
func peaks(s *multi.Schedule) (blue, red int64) {
	pk := s.MemoryPeaks()
	return pk[0], pk[1]
}

// readyByScan re-derives Ready(id) the naive way, by scanning parents.
func readyByScan(st *multi.Partial, g *dag.Graph, id dag.TaskID) bool {
	if st.Assigned(id) {
		return false
	}
	for _, e := range g.In(id) {
		if !st.Assigned(g.Edge(e).From) {
			return false
		}
	}
	return true
}

// makespanByScan re-derives MakespanSoFar the naive way, over the
// committed finish times.
func makespanByScan(st *multi.Partial, g *dag.Graph) float64 {
	ms := 0.0
	for i := 0; i < g.NumTasks(); i++ {
		if id := dag.TaskID(i); st.Assigned(id) && st.Finish(id) > ms {
			ms = st.Finish(id)
		}
	}
	return ms
}
