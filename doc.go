// Package memsched is a Go implementation of the memory-aware list
// scheduling heuristics for hybrid (dual-memory) platforms of Herrmann,
// Marchal and Robert, "Memory-aware list scheduling for hybrid platforms"
// (INRIA RR-8461, IPDPS 2014), generalised to platforms with any number of
// memory pools.
//
// A platform is an ordered list of memory pools, each with identical
// processors sharing one memory (type Platform, NewPlatform). The paper's
// hybrid platform is the 2-pool case — P1 "blue" processors sharing a blue
// memory (think CPUs and host RAM) and P2 "red" processors sharing a red
// memory (think GPUs and device memory) — built with NewDualPlatform. An
// application is a DAG of tasks; every task has one processing time per
// pool, and every edge carries a data file that occupies memory from its
// producer's start until its consumer's completion, moving between pools at
// a communication cost when producer and consumer live on different sides.
// The problem: minimise the makespan without ever exceeding any memory
// capacity.
//
// # Sessions
//
// All scheduling goes through a Session, created once per graph:
//
//	g := memsched.NewGraph()
//	a := g.AddTask("prepare", 3, 1) // 3 time units on blue, 1 on red
//	b := g.AddTask("solve", 6, 3)
//	g.MustAddEdge(a, b, 2, 1) // a 2-unit file, 1 time unit to move across
//
//	sess, err := memsched.NewSession(g)
//	if err != nil { ... }
//	p := memsched.NewDualPlatform(2, 1, 8, 4) // 2 blue procs, 1 red, memories 8 and 4
//	res, err := sess.Schedule(ctx, p, memsched.WithScheduler("memheft"), memsched.WithSeed(1))
//	if err != nil { ... }
//	fmt.Println(res.Makespan(), res.PeakResidency(), res.Stats.CacheHitRate())
//
// The session owns the per-graph memos that repeated scheduling reuses —
// the pattern of every memory sweep: validated statics, seeded priority
// lists and mean ranks. It is safe for concurrent
// use: goroutines scheduling different graphs through different sessions
// share nothing. Every entry point takes a context.Context with cooperative
// cancellation; WithTimeout is a convenience wrapper over it.
//
// Session methods:
//
//   - Schedule runs a registered heuristic (Schedulers lists them): the
//     paper's MemHEFT and MemMinMin, their memory-oblivious references HEFT
//     and MinMin, and the insertion-policy ablation. One engine serves
//     every pool count: a session built from the graph's blue/red times
//     schedules on 2-pool platforms, a pool-time session (WithPoolTimes)
//     on platforms as wide as its matrix.
//   - Optimal runs the exact branch-and-bound reference over list
//     schedules, reporting nodes explored and whether optimality was
//     proven.
//   - Simulate runs the online StarPU-style dispatcher (WithPolicy selects
//     rank or EFT dispatch order).
//
// Each call returns a Result carrying the schedule plus structured stats:
// makespan, per-pool peak residency, candidate-cache hit rate, per-pool
// task counts, search nodes, wall time.
//
// Session.Fork returns a twin session for contention-free parallel use:
// forks produce bit-identical schedules and never share a mutex with their
// parent, which is what package repro/sweep builds its per-worker fan-out
// on. By default a fork is born warm — it inherits the parent's immutable
// memos (statics, validation, ranks, priority lists) behind copy-on-write
// wrappers and detaches on the first divergent write; Fork(ForkCold())
// starts from empty caches instead. Session.WarmUp precomputes those memos
// ahead of time, and WithWarmStart enables capacity-delta replay across
// Schedule calls (see ReplayEligible).
//
// The package also exposes graph construction and serialisation (Graph,
// NewGraph, ReadGraph), a canonical per-graph content hash (GraphHash),
// workload generators (DAGGEN-style random graphs, tiled LU/Cholesky
// factorisations) and a schedule validator. The experiment harness
// reproducing the paper's figures lives in internal/experiments (driven by
// cmd/experiments, see EXPERIMENTS.md) on top of the sweep engine.
//
// # Performance architecture
//
// The scheduling hot path is incremental (see internal/multi and
// internal/memfn): a commit perturbs only one processor, the staircases of
// the touched memory pools and the readiness of the committed task's
// children, so the engine re-derives only what changed. Each pool carries
// an epoch counter bumped on every mutation; candidate evaluations are
// memoized per (task, pool) and reused while the pool's epoch and the
// task's parents are unchanged — on a k-pool platform a commit typically
// leaves k-1 pools' candidates cached. A ready task's parent aggregates
// are derived once, for all pools in one walk over its in-edges.
// Ready-ness is tracked with parent counters, the makespan is a running
// max, MemMinMin keeps its candidates in an EFT-ordered heap with lazy
// invalidation, and the free-memory staircases answer earliest-fit queries
// in O(log l) through a lazily repaired suffix-minimum array, with all
// reservations of one commit spliced in one batched suffix-local merge pass
// per touched pool. Each bounded staircase keeps only its live window: the
// pieces before the earliest time a later placement on the pool can query
// are forgotten, so l is the window's length, not the schedule's history.
// Sessions own the cross-run memos (priority lists, mean ranks, graph
// statics, validation), so repeated scheduling of the same graph — memory
// sweeps, benchmarks, server traffic — pays the ranking phase once per
// (graph, seed). None of this changes
// results: the naive implementations are retained as reference oracles
// (MemHEFTReference / MemMinMinReference in internal/multi) and
// golden-equivalence tests assert bit-identical schedules, including under
// concurrent session use. docs/ARCHITECTURE.md walks through the whole
// incremental architecture — epoch invalidation, staircase suffix-min,
// session memos — in one place.
//
// # Sweeps and the scheduling service
//
// Package repro/sweep batch-evaluates one Session across a grid of
// platforms × schedulers × seeds (the paper's experimental shape) on a
// bounded worker pool, with deterministic point-ordered results and a
// computed summary (best point, makespan curves, memory-bound frontier).
//
// Package repro/serve exposes Sessions over HTTP/JSON with a bounded LRU
// session cache keyed by GraphHash, request admission control, a streaming
// NDJSON sweep endpoint, Prometheus metrics and graceful shutdown;
// cmd/memschedd is the daemon and cmd/schedload its load generator. Use it
// when the request stream crosses a process boundary; embed Sessions
// directly otherwise.
//
// # Removed flat API
//
// The pre-Session dual facade (MemHEFT, SchedulerByName, Optimal, Simulate
// as top-level functions) and the parallel Multi* type names completed
// their deprecation cycles and have been removed; callers use a Session on
// the unified Platform/Pool surface. See docs/MIGRATION.md for the full
// mapping.
//
// See the examples/ directory for complete programs.
package memsched
