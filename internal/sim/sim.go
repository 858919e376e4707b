// Package sim provides a discrete-event runtime simulator for multi-pool
// platforms, in the spirit of the StarPU runtime the paper's conclusion
// proposes as an integration target. Unlike the static heuristics of
// internal/multi — which precompute a full schedule with as-late-as-possible
// communications — the simulator drives an *online* dispatcher: scheduling
// decisions happen at runtime events (a processor going idle, a transfer
// completing), transfers start eagerly at dispatch time, and memory is
// managed by admission control on the current usage rather than on a
// staircase of future reservations.
//
// The dispatcher still produces a schedule in the paper's model, so its
// output is checked by the same validator as everything else; tests compare
// it against the static heuristics.
package sim

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/multi"
)

// ErrStuck is returned (wrapped) when the online run deadlocks: nothing is
// running and no ready task passes memory admission.
var ErrStuck = errors.New("sim: runtime stuck: no ready task fits in memory")

// Policy selects the dispatch order among admissible ready tasks.
type Policy int

// Dispatch policies.
const (
	// RankPolicy dispatches the highest-upward-rank admissible ready
	// task first (HEFT-flavoured).
	RankPolicy Policy = iota
	// EFTPolicy dispatches the (task, processor) pair with the earliest
	// finish time (MinMin-flavoured).
	EFTPolicy
)

func (p Policy) String() string {
	if p == RankPolicy {
		return "rank"
	}
	return "eft"
}

// Options configures a simulation run.
type Options struct {
	Policy Policy
	Seed   int64 // reserved for tie-break randomisation; dispatch is currently deterministic
	// Caches, when non-nil, serves the validation and the mean upward
	// ranks of RankPolicy from the caller's memos — typically a
	// memsched.Session's.
	Caches *multi.Caches
}

// Result couples the emitted schedule with runtime statistics.
type Result struct {
	Schedule *multi.Schedule
	Events   int // dispatcher invocations
}

// event is an entry of the simulation clock: a task or transfer completion.
type event struct {
	time float64
	seq  int // tie-breaker: FIFO among equal times
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// runtime is the mutable simulation state.
type runtime struct {
	in  *multi.Instance
	g   *dag.Graph
	p   multi.Platform
	out *multi.Schedule

	clock      float64
	queue      eventQueue
	seq        int
	procFree   []float64 // per processor: time it becomes idle
	used       []int64   // per pool: current memory usage
	pendingIn  []int     // per task: parents not yet completed
	completed  []bool
	running    int
	ranks      []float64
	dispatched []bool
}

// Run simulates the online execution of in on p and returns the emitted
// schedule (already validated) and statistics. The context cancels the
// event loop cooperatively; cancellation returns ctx.Err() wrapped.
func Run(ctx context.Context, in *multi.Instance, p multi.Platform, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opt.Caches.Validate(in, p.NumPools()); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ranks, err := opt.Caches.MeanRanks(ctx, in)
	if err != nil {
		return nil, err
	}
	g := in.G
	rt := &runtime{
		in: in, g: g, p: p,
		out:        multi.NewSchedule(in, p),
		procFree:   make([]float64, p.TotalProcs()),
		used:       make([]int64, p.NumPools()),
		pendingIn:  make([]int, g.NumTasks()),
		completed:  make([]bool, g.NumTasks()),
		dispatched: make([]bool, g.NumTasks()),
		ranks:      ranks,
	}
	for i := 0; i < g.NumTasks(); i++ {
		rt.pendingIn[i] = len(g.In(dag.TaskID(i)))
	}
	heap.Init(&rt.queue)

	events := 0
	for {
		if events%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: run interrupted: %w", err)
			}
		}
		events++
		progress := rt.dispatch(opt)
		if rt.done() {
			break
		}
		if len(rt.queue) == 0 {
			if !progress {
				return nil, fmt.Errorf("%w (t=%g, %d tasks left)", ErrStuck, rt.clock, rt.remaining())
			}
			continue
		}
		// Advance the clock to the next completion.
		ev := heap.Pop(&rt.queue).(event)
		rt.clock = ev.time
		rt.collect()
	}
	res := &Result{Schedule: rt.out, Events: events}
	if err := rt.out.Validate(); err != nil {
		return nil, fmt.Errorf("sim: emitted schedule invalid: %w", err)
	}
	return res, nil
}

func (rt *runtime) done() bool {
	for _, c := range rt.completed {
		if !c {
			return false
		}
	}
	return true
}

func (rt *runtime) remaining() int {
	n := 0
	for _, c := range rt.completed {
		if !c {
			n++
		}
	}
	return n
}

// collect marks tasks whose finish time has been reached as completed,
// releasing their input files.
func (rt *runtime) collect() {
	g := rt.g
	for i := 0; i < g.NumTasks(); i++ {
		id := dag.TaskID(i)
		if rt.completed[i] || !rt.dispatched[i] {
			continue
		}
		if rt.out.Finish(id) > rt.clock+multi.Eps {
			continue
		}
		rt.completed[i] = true
		rt.running--
		pool := rt.out.PoolOf(id)
		// Input files are discarded at completion (intra-pool ones were
		// still resident; cross ones were released from the source at
		// transfer end, handled at dispatch below).
		for _, e := range g.In(id) {
			edge := g.Edge(e)
			rt.used[pool] -= edge.File
			if src := rt.out.PoolOf(edge.From); src != pool {
				// The source-side copy left at transfer end;
				// account it now if the transfer end has
				// passed (it has: transfers end before the
				// task starts).
				rt.used[src] -= edge.File
			}
		}
		for _, e := range g.Out(id) {
			rt.pendingIn[g.Edge(e).To]--
		}
	}
}

// admissible reports whether task id fits on pool k right now, and the
// incremental memory it would pin there.
func (rt *runtime) admissible(id dag.TaskID, k int) (int64, bool) {
	g := rt.g
	var need int64
	for _, e := range g.In(id) {
		edge := g.Edge(e)
		if rt.out.PoolOf(edge.From) != k {
			need += edge.File
		}
	}
	for _, e := range g.Out(id) {
		need += g.Edge(e).File
	}
	return need, rt.used[k]+need <= rt.p.Capacity(k)
}

// dispatch assigns admissible ready tasks to idle processors at the current
// clock. Returns whether anything was dispatched.
func (rt *runtime) dispatch(opt Options) bool {
	g := rt.g
	progress := false
	for {
		type move struct {
			id   dag.TaskID
			pool int
			proc int
			eft  float64
		}
		best := move{proc: -1}
		for i := 0; i < g.NumTasks(); i++ {
			id := dag.TaskID(i)
			if rt.dispatched[i] || rt.pendingIn[i] > 0 {
				continue
			}
			for k := 0; k < rt.p.NumPools(); k++ {
				lo, hi := rt.p.ProcRange(k)
				proc := -1
				for q := lo; q < hi; q++ {
					if rt.procFree[q] <= rt.clock+multi.Eps {
						proc = q
						break
					}
				}
				if proc < 0 {
					continue
				}
				if _, ok := rt.admissible(id, k); !ok {
					continue
				}
				// Transfer window: all cross inputs start now.
				delay := 0.0
				for _, e := range g.In(id) {
					edge := g.Edge(e)
					if rt.out.PoolOf(edge.From) != k && edge.Comm > delay {
						delay = edge.Comm
					}
				}
				eft := rt.clock + delay + rt.in.Time(id, k)
				pick := false
				switch opt.Policy {
				case RankPolicy:
					if best.proc < 0 || rt.ranks[id] > rt.ranks[best.id] ||
						(rt.ranks[id] == rt.ranks[best.id] && eft < best.eft) {
						pick = true
					}
				case EFTPolicy:
					if best.proc < 0 || eft < best.eft {
						pick = true
					}
				}
				if pick {
					best = move{id: id, pool: k, proc: proc, eft: eft}
				}
			}
		}
		if best.proc < 0 {
			return progress
		}
		rt.start(best.id, best.pool, best.proc)
		progress = true
	}
}

// start dispatches task id on proc (pool k) at the current clock: transfers
// begin immediately, the task starts when the slowest transfer completes,
// and all memory is pinned up front (admission control).
func (rt *runtime) start(id dag.TaskID, k int, proc int) {
	g := rt.g
	delay := 0.0
	for _, e := range g.In(id) {
		edge := g.Edge(e)
		if rt.out.PoolOf(edge.From) != k {
			rt.out.CommStart[edge.ID] = rt.clock
			if edge.Comm > delay {
				delay = edge.Comm
			}
			rt.used[k] += edge.File // dest copy pinned from now
		}
	}
	for _, e := range g.Out(id) {
		rt.used[k] += g.Edge(e).File
	}
	start := rt.clock + delay
	w := rt.in.Time(id, k)
	rt.out.Tasks[id] = multi.Placement{Start: start, Proc: proc}
	rt.procFree[proc] = start + w
	rt.dispatched[id] = true
	rt.running++
	rt.seq++
	heap.Push(&rt.queue, event{time: start + w, seq: rt.seq})
}

// Makespan is a convenience accessor on a Result.
func (r *Result) Makespan() float64 {
	if r == nil || r.Schedule == nil {
		return math.Inf(1)
	}
	return r.Schedule.Makespan()
}
