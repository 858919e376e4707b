// Package multi implements the paper's primary contribution — the
// memory-aware list-scheduling heuristics MemHEFT (Algorithm 1) and
// MemMinMin (Algorithm 2) — on platforms with any number of memory pools.
// The paper's dual-memory machine is the 2-pool case (pool 0 blue, pool 1
// red); the k-pool generalisation is the extension its conclusion (§7)
// proposes: "hybrid platforms with several types of accelerators, and/or
// including more than two memories".
//
// A platform is a list of pools, each with its own processor count and
// memory capacity. A task has one processing time per pool; the DAG
// structure, file sizes and communication delays come from the graph
// (communications between any two distinct pools cost the edge's Comm
// time, during which the file resides in both pools).
//
// Both heuristics share the same earliest-start-time machinery (§5.1): for
// a task i and a pool mu, EST(mu, i) is the max of
//
//   - resource_EST:    a processor of mu is free;
//   - precedence_EST:  parents finished, plus the communication delay for
//     parents living on another pool;
//   - task_mem_EST:    from the start of i onward the pool holds the
//     not-yet-present input files plus all output files;
//   - comm_mem_EST+C:  from the start of the incoming communications onward
//     the pool holds the in-flight input files; all cross
//     communications are scheduled as late as possible with
//     the uniform conservative duration
//     C(mu,i) = max cross-parent C(j,i).
//
// EFT(mu,i) = EST(mu,i) + W(mu,i); the task goes to the pool minimising EFT
// (lowest pool index on ties) and, inside it, to the processor minimising
// idle time. The upward rank of MemHEFT's priority list averages the
// processing times over all pools.
//
// Note on the paper's notation: §5.1 writes delta(mu,j) = 0 when j runs on
// memory mu, but then uses (1-delta) to select the *cross* input files in
// task_mem_EST/comm_mem_EST. The prose ("input files of task i that were not
// stored on memory mu yet") makes the intent unambiguous, so this package
// follows the prose: cross parents contribute both the communication delay
// in precedence_EST and the file sizes in the two memory ESTs.
//
// The engine is incremental: an epoch-memoized Partial (see partial.go),
// session-owned memos in Caches (mean ranks, priority lists, statics,
// validation), Partial buffers recycled process-wide, and batched staircase
// splices. The pre-incremental eager code is retained in naive.go as
// MemHEFTReference / MemMinMinReference, the oracles the golden-equivalence
// tests compare against.
//
// The package also holds the repository's one schedule model: Schedule, its
// Validate (the three constraint families of §3), the peak-residency sweep
// Peaks with its tie rule Live, and the Timeline, Render and SVG output,
// which name the pools blue and red on a 2-pool platform. The ILP oracle
// and cmd/memsched work on these types.
package multi

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/dag"
)

// rankStride is how many tasks the ranking/statics loops process between
// cooperative context polls.
const rankStride = 1024

// Pool is one memory with its attached identical processors.
type Pool struct {
	Procs    int
	Capacity int64
}

// Platform is an ordered list of pools. Processor indices are global: pool
// 0 owns processors [0, Pools[0].Procs), pool 1 the next block, and so on.
type Platform struct {
	Pools []Pool
}

// NewPlatform builds a platform from pools.
func NewPlatform(pools ...Pool) Platform { return Platform{Pools: pools} }

// DualPlatform builds the paper's dual-memory machine as its 2-pool case:
// pBlue processors sharing a blue memory of capacity mBlue (pool 0) and
// pRed processors sharing a red memory of capacity mRed (pool 1).
func DualPlatform(pBlue, pRed int, mBlue, mRed int64) Platform {
	return NewPlatform(Pool{Procs: pBlue, Capacity: mBlue}, Pool{Procs: pRed, Capacity: mRed})
}

// Unbounded returns the same platform with every pool's capacity unlimited.
func (p Platform) Unbounded() Platform {
	return p.WithUniformBounds(dag.Unlimited)
}

// WithUniformBounds returns the same platform with every pool capacity set
// to c.
func (p Platform) WithUniformBounds(c int64) Platform {
	pools := make([]Pool, len(p.Pools))
	for k, pool := range p.Pools {
		pool.Capacity = c
		pools[k] = pool
	}
	return Platform{Pools: pools}
}

// Capacity returns the capacity of pool k.
func (p Platform) Capacity(k int) int64 { return p.Pools[k].Capacity }

// String formats the platform compactly, one procs@capacity entry per pool.
func (p Platform) String() string {
	var b strings.Builder
	b.WriteString("platform{")
	for k, pool := range p.Pools {
		if k > 0 {
			b.WriteByte(' ')
		}
		cap := "inf"
		if pool.Capacity < dag.Unlimited {
			cap = fmt.Sprintf("%d", pool.Capacity)
		}
		fmt.Fprintf(&b, "%d@%s", pool.Procs, cap)
	}
	b.WriteString("}")
	return b.String()
}

// NumPools returns the number of memory pools.
func (p Platform) NumPools() int { return len(p.Pools) }

// TotalProcs returns the total processor count.
func (p Platform) TotalProcs() int {
	n := 0
	for _, pool := range p.Pools {
		n += pool.Procs
	}
	return n
}

// ProcRange returns the half-open global processor interval of pool k.
func (p Platform) ProcRange(k int) (lo, hi int) {
	for i := 0; i < k; i++ {
		lo += p.Pools[i].Procs
	}
	return lo, lo + p.Pools[k].Procs
}

// PoolOf returns the pool owning global processor index proc.
func (p Platform) PoolOf(proc int) int {
	for k, pool := range p.Pools {
		if proc < pool.Procs {
			return k
		}
		proc -= pool.Procs
	}
	return -1
}

// Validate rejects platforms without processors or with negative fields.
func (p Platform) Validate() error {
	if len(p.Pools) == 0 {
		return fmt.Errorf("multi: no pools")
	}
	total := 0
	for i, pool := range p.Pools {
		if pool.Procs < 0 {
			return fmt.Errorf("multi: pool %d has negative processor count", i)
		}
		if pool.Capacity < 0 {
			return fmt.Errorf("multi: pool %d has negative capacity", i)
		}
		total += pool.Procs
	}
	if total == 0 {
		return fmt.Errorf("multi: no processors")
	}
	return nil
}

// Instance couples the DAG structure (files and communication delays come
// from the graph's edges) with a per-pool timing matrix. The graph's WBlue
// and WRed fields are ignored.
type Instance struct {
	G     *dag.Graph
	Times [][]float64 // Times[task][pool]
}

// NewInstance wraps a graph and timing matrix.
func NewInstance(g *dag.Graph, times [][]float64) *Instance {
	return &Instance{G: g, Times: times}
}

// FromDual converts a dual-memory graph into a 2-pool instance whose pool 0
// carries the blue times and pool 1 the red times.
func FromDual(g *dag.Graph) *Instance {
	n := g.NumTasks()
	times := make([][]float64, n)
	flat := make([]float64, 2*n)
	for i := range times {
		t := g.Task(dag.TaskID(i))
		row := flat[2*i : 2*i+2 : 2*i+2]
		row[0], row[1] = t.WBlue, t.WRed
		times[i] = row
	}
	return &Instance{G: g, Times: times}
}

// Time returns the processing time of task id on pool k.
func (in *Instance) Time(id dag.TaskID, k int) float64 { return in.Times[id][k] }

// Validate checks the graph, and the matrix shape against the graph and
// platform.
func (in *Instance) Validate(p Platform) error { return in.validate(p.NumPools()) }

func (in *Instance) validate(nPools int) error {
	if in == nil || in.G == nil {
		return fmt.Errorf("multi: nil graph")
	}
	if err := in.G.Validate(); err != nil {
		return err
	}
	return in.validateMatrix(nPools)
}

// Width returns the number of pool columns of the timing matrix: the width
// of its first row, 0 for an instance without tasks.
func (in *Instance) Width() int {
	if len(in.Times) == 0 {
		return 0
	}
	return len(in.Times[0])
}

// ValidateMatrix checks the timing matrix on its own, at its Width: one row
// per task, every row that wide, no negative time. A matrix that passes
// schedules on every platform with that many pools; one that fails
// schedules on none.
func (in *Instance) ValidateMatrix() error { return in.validateMatrix(in.Width()) }

// validateMatrix is the timing-matrix half of Validate, split out so the
// session cache layer can memoize it per pool count.
func (in *Instance) validateMatrix(nPools int) error {
	if len(in.Times) != in.G.NumTasks() {
		return fmt.Errorf("multi: timing matrix has %d rows for %d tasks", len(in.Times), in.G.NumTasks())
	}
	var work float64
	for i, row := range in.Times {
		if len(row) != nPools {
			return fmt.Errorf("multi: task %d has %d pool times for %d pools", i, len(row), nPools)
		}
		var slowest float64
		for k, w := range row {
			if w < 0 {
				return fmt.Errorf("multi: task %d has negative time on pool %d", i, k)
			}
			slowest = max(slowest, w)
		}
		work += slowest
	}
	// The same conservative bound as dag.Graph.Validate, over the matrix.
	for _, e := range in.G.Edges() {
		work += e.Comm
	}
	if math.IsInf(work, 0) || math.IsNaN(work) {
		return fmt.Errorf("multi: pool and communication times sum to %g; "+
			"the sum over tasks of the largest pool time plus every comm must be finite "+
			"(a conservative bound: it counts all work as if run in sequence)", work)
	}
	return nil
}

// MeanRanks returns the multi-pool upward ranks: the per-task mean over
// pools of the processing time, plus the max over children of their rank
// plus half the communication cost — the direct generalisation of §5.1.
// The context (nil allowed) is polled cooperatively so a cold ranking
// phase stays interruptible; cancellation returns ctx.Err().
func (in *Instance) MeanRanks(ctx context.Context) ([]float64, error) {
	rev, err := in.G.ReverseTopologicalOrder()
	if err != nil {
		return nil, err
	}
	rank := make([]float64, in.G.NumTasks())
	if len(rank) == 0 {
		return rank, nil
	}
	nPools := len(in.Times[0])
	for step, id := range rev {
		if ctx != nil && step%rankStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		mean := 0.0
		for _, w := range in.Times[id] {
			mean += w
		}
		mean /= float64(nPools)
		best := 0.0
		for _, e := range in.G.Out(id) {
			edge := in.G.Edge(e)
			if v := rank[edge.To] + edge.Comm/2; v > best {
				best = v
			}
		}
		rank[id] = mean + best
	}
	return rank, nil
}
