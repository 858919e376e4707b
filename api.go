package memsched

import (
	"io"

	"repro/internal/dag"
	"repro/internal/daggen"
	"repro/internal/exact"
	"repro/internal/linalg"
	"repro/internal/multi"
	"repro/internal/sim"
)

// Core model types.
type (
	// Graph is a task DAG with dual processing times and file-carrying
	// edges.
	Graph = dag.Graph
	// TaskID identifies a task within a Graph.
	TaskID = dag.TaskID
	// EdgeID identifies an edge within a Graph.
	EdgeID = dag.EdgeID
	// Task is a node of the graph.
	Task = dag.Task
	// Edge is a dependency carrying a file.
	Edge = dag.Edge

	// Pool is one memory with its attached identical processors.
	Pool = multi.Pool
	// Platform is an ordered list of memory pools — the one platform
	// abstraction of the package. The paper's dual-memory machine is its
	// 2-pool case (pool 0 blue/CPU-side, pool 1 red/accelerator-side):
	// build one with NewDualPlatform, or any pool count with NewPlatform.
	Platform = multi.Platform
	// PoolSchedule is a complete mapping of a graph onto a platform's
	// pools: one placement per task and one start per cross-pool
	// communication.
	PoolSchedule = multi.Schedule
	// Instance couples a DAG with a per-pool Times[task][pool] matrix for
	// k-pool scheduling.
	Instance = multi.Instance
)

// Unlimited is a memory capacity that never constrains a schedule.
const Unlimited = dag.Unlimited

// NewGraph returns an empty task graph.
func NewGraph() *Graph { return dag.New() }

// ReadGraph decodes and validates a JSON graph from r.
func ReadGraph(r io.Reader) (*Graph, error) { return dag.Read(r) }

// GraphHash returns the canonical content hash of g (hex SHA-256 over tasks
// and sorted edges): equal-content graphs hash equally regardless of edge
// insertion order. It is the cache key of the scheduling service's session
// cache; Session.GraphHash returns the same value for plain dual sessions.
func GraphHash(g *Graph) string { return g.CanonicalHash() }

// NewPlatform builds a platform from memory pools; the pool order defines
// the global processor numbering.
func NewPlatform(pools ...Pool) Platform { return multi.NewPlatform(pools...) }

// NewDualPlatform builds the paper's dual-memory platform as its 2-pool
// case: pBlue processors sharing a blue memory of capacity mBlue (pool 0)
// and pRed processors sharing a red memory of capacity mRed (pool 1).
func NewDualPlatform(pBlue, pRed int, mBlue, mRed int64) Platform {
	return multi.DualPlatform(pBlue, pRed, mBlue, mRed)
}

// NewInstance couples a graph (structure, files, communication times) with
// a Times[task][pool] processing-time matrix for k-pool scheduling. Prefer
// NewSession with WithPoolTimes.
func NewInstance(g *Graph, times [][]float64) *Instance {
	return multi.NewInstance(g, times)
}

// ErrMemoryBound is returned (wrapped) when a memory-aware heuristic cannot
// schedule the graph within the platform's memory bounds.
var ErrMemoryBound = multi.ErrMemoryBound

// LowerBound returns a makespan lower bound valid for every schedule of g
// on the 2-pool platform p (critical path and aggregate work arguments).
// Session.LowerBound serves WithPoolTimes sessions on any pool count.
func LowerBound(g *Graph, p Platform) (float64, error) {
	in := multi.FromDual(g)
	if err := in.Validate(p); err != nil {
		return 0, err
	}
	return exact.LowerBound(in, p)
}

// Workload generators.

// RandomParams configures the DAGGEN-style random generator.
type RandomParams = daggen.Params

// SmallRandParams returns the paper's SmallRandSet parameters (30 tasks).
func SmallRandParams() RandomParams { return daggen.SmallParams() }

// LargeRandParams returns the paper's LargeRandSet parameters (1000 tasks).
func LargeRandParams() RandomParams { return daggen.LargeParams() }

// GenerateRandom builds one random DAG from params and seed.
func GenerateRandom(p RandomParams, seed int64) (*Graph, error) { return daggen.Generate(p, seed) }

// LinalgConfig configures the tiled factorisation graph builders.
type LinalgConfig = linalg.Config

// DefaultLinalgConfig returns the paper's configuration (Table 1 timings,
// 50 ms tile transfers, broadcast pipelines) for an n x n tiled matrix.
func DefaultLinalgConfig(n int) LinalgConfig { return linalg.DefaultConfig(n) }

// LUGraph builds the task graph of a tiled LU factorisation.
func LUGraph(cfg LinalgConfig) (*Graph, error) { return linalg.LU(cfg) }

// CholeskyGraph builds the task graph of a tiled Cholesky factorisation.
func CholeskyGraph(cfg LinalgConfig) (*Graph, error) { return linalg.Cholesky(cfg) }

// PaperExample returns the four-task toy DAG of Figure 2 of the paper.
func PaperExample() *Graph { return dag.PaperExample() }

// The experiment-harness re-exports (ResultTable, SweepResult, QuickScale,
// FullScale) moved out of this package when internal/experiments was
// rebuilt on top of the public sweep engine (package repro/sweep): the
// harness now imports this package, so the aliases would cycle. Import
// repro/internal/experiments from within this module, or use package sweep
// for the grid-evaluation shape; see docs/MIGRATION.md.

// Online runtime simulation (the StarPU-style integration the paper's
// conclusion proposes): scheduling decisions happen at runtime events with
// eager transfers and memory admission control. Run it with
// Session.Simulate.

// SimPolicy selects the online dispatch order.
type SimPolicy = sim.Policy

// Online dispatch policies.
const (
	// SimRankPolicy dispatches the highest-upward-rank admissible task
	// (HEFT-flavoured).
	SimRankPolicy = sim.RankPolicy
	// SimEFTPolicy dispatches the earliest-finishing admissible pair
	// (MinMin-flavoured).
	SimEFTPolicy = sim.EFTPolicy
)

// ErrSimStuck is returned (wrapped) when the online run deadlocks on memory.
var ErrSimStuck = sim.ErrStuck

// DualInstance converts a dual-memory graph into a 2-pool instance (pool 0
// blue, pool 1 red): the instance a plain NewSession schedules.
func DualInstance(g *Graph) *Instance { return multi.FromDual(g) }
