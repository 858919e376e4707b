package memsched_test

// One benchmark per table and figure of the paper's evaluation (§6), plus
// ablation benchmarks for the design choices called out in DESIGN.md. The
// figure benchmarks run the same harness code as cmd/experiments at reduced
// scale so `go test -bench=.` completes in minutes; run
// `go run ./cmd/experiments -scale full` for the paper-scale campaign.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	memsched "repro"
	"repro/cluster"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/daggen"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/linalg"
	"repro/internal/memfn"
	"repro/internal/multi"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/serve"
	"repro/sweep"
)

// --- Table 1 ---

// BenchmarkTable1Kernels regenerates the kernel timing table.
func BenchmarkTable1Kernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		if len(t.Rows) != 6 {
			b.Fatal("table shape")
		}
	}
}

// --- Figures 10-15 ---

// BenchmarkFig10SmallRandSet runs the SmallRandSet sweep with the exact
// reference curve (reduced instance count).
func BenchmarkFig10SmallRandSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		graphs, err := daggen.Set(daggen.SmallParams(), 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		_, err = experiments.NormalizedSweep(tctx, experiments.NormalizedSweepConfig{
			Graphs:      graphs,
			Platform:    experiments.RandomPlatform(),
			Alphas:      []float64{0.4, 0.7, 1.0},
			Seed:        1,
			WithOptimal: true,
			OptNodes:    20000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11SingleSmallDAG sweeps absolute memory on one 30-task DAG
// with all four heuristics and the lower bound.
func BenchmarkFig11SingleSmallDAG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(tctx, experiments.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12LargeRandSet runs the LargeRandSet sweep at reduced size.
func BenchmarkFig12LargeRandSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(tctx, experiments.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13SingleLargeDAG sweeps absolute memory on one large DAG.
func BenchmarkFig13SingleLargeDAG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(tctx, experiments.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14LU sweeps memory for the tiled LU factorisation on the
// mirage platform.
func BenchmarkFig14LU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(tctx, experiments.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15Cholesky sweeps memory for the tiled Cholesky factorisation.
func BenchmarkFig15Cholesky(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15(tctx, experiments.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Scheduler throughput ---

func benchScheduler(b *testing.B, fn core.Func, size int, alpha float64) {
	g, p := dualBenchFixture(b, size, alpha)
	// One cache set for the loop, as a session would hold: the benchmark
	// tracks the steady-state (warm-memo) scheduling cost.
	caches := core.NewCaches()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(tctx, g, p, core.Options{Seed: 7, Caches: caches}); err != nil {
			b.Fatal(err)
		}
	}
}

// dualBenchFixture returns the daggen graph of the given size on the random
// platform, both memories bounded at alpha times the HEFT peak.
func dualBenchFixture(b *testing.B, size int, alpha float64) (*dag.Graph, platform.Platform) {
	params := daggen.LargeParams()
	params.Size = size
	g, err := daggen.Generate(params, 7)
	if err != nil {
		b.Fatal(err)
	}
	p := experiments.RandomPlatform()
	_, peak, err := experiments.HEFTReference(tctx, g, p, 7)
	if err != nil {
		b.Fatal(err)
	}
	bound := int64(alpha * float64(peak))
	return g, p.WithBounds(bound, bound)
}

// BenchmarkMemHEFT300 measures MemHEFT on a 300-task DAG at half the HEFT
// memory.
func BenchmarkMemHEFT300(b *testing.B) { benchScheduler(b, core.MemHEFT, 300, 0.5) }

// BenchmarkMemMinMin300 measures MemMinMin on the same instance.
func BenchmarkMemMinMin300(b *testing.B) { benchScheduler(b, core.MemMinMin, 300, 0.5) }

// BenchmarkHEFT1000 measures plain HEFT on a 1000-task DAG.
func BenchmarkHEFT1000(b *testing.B) { benchScheduler(b, core.HEFT, 1000, 1) }

// BenchmarkMemHEFT3000 and BenchmarkMemHEFT10000 track the incremental
// engine at production scales the naive implementation could not reach in
// reasonable time (the per-iteration full rescan is quadratic in n with an
// O(l) staircase walk inside).
// (The memory pressure is eased with size: at these scales the random DAGs
// stop fitting half the HEFT peak — see the feasibility sweep in ISSUE 1.)
func BenchmarkMemHEFT3000(b *testing.B)  { benchScheduler(b, core.MemHEFT, 3000, 0.7) }
func BenchmarkMemHEFT10000(b *testing.B) { benchScheduler(b, core.MemHEFT, 10000, 0.9) }

// BenchmarkMemMinMin3000 is the dynamic heuristic at the same scale; its
// candidate heap with lazy invalidation is what keeps the per-commit cost
// near the ready-set width instead of a full re-evaluation.
func BenchmarkMemMinMin3000(b *testing.B) { benchScheduler(b, core.MemMinMin, 3000, 0.7) }

// BenchmarkMemHEFTReference300 and BenchmarkMemMinMinReference300 run the
// retained naive oracles on the 300-task instance, pinning the speedup of
// the incremental paths (the golden-equivalence tests prove the schedules
// are identical).
func BenchmarkMemHEFTReference300(b *testing.B) {
	benchScheduler(b, core.MemHEFTReference, 300, 0.5)
}
func BenchmarkMemMinMinReference300(b *testing.B) {
	benchScheduler(b, core.MemMinMinReference, 300, 0.5)
}

// --- k-pool engine throughput ---

// benchMultiScheduler measures one generalised heuristic on the shared
// deterministic fixture (host pool + k-1 accelerators, capacities at alpha
// times the total file volume), with one cache set held across iterations
// as a k-pool session would.
func benchMultiScheduler(b *testing.B, fn multi.Func, size, k int, alpha float64, cached bool) {
	params := daggen.LargeParams()
	params.Size = size
	g, err := daggen.Generate(params, 7)
	if err != nil {
		b.Fatal(err)
	}
	in, p := experiments.KPoolBench(g, k, alpha)
	var caches *multi.Caches
	if cached {
		caches = multi.NewCaches()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(tctx, in, p, multi.Options{Seed: 7, Caches: caches}); err != nil {
			b.Fatal(err)
		}
	}
}

// The incremental k-pool engine across the tracked scales: the paper's
// "several types of accelerators" extension at 3, 4 and 8 pools.
func BenchmarkMultiMemHEFT300k3(b *testing.B) {
	benchMultiScheduler(b, multi.MemHEFT, 300, 3, 0.3, true)
}
func BenchmarkMultiMemHEFT1000k4(b *testing.B) {
	benchMultiScheduler(b, multi.MemHEFT, 1000, 4, 0.3, true)
}
func BenchmarkMultiMemHEFT3000k8(b *testing.B) {
	benchMultiScheduler(b, multi.MemHEFT, 3000, 8, 0.3, true)
}
func BenchmarkMultiMemMinMin300k3(b *testing.B) {
	benchMultiScheduler(b, multi.MemMinMin, 300, 3, 0.3, true)
}
func BenchmarkMultiMemMinMin1000k4(b *testing.B) {
	benchMultiScheduler(b, multi.MemMinMin, 1000, 4, 0.3, true)
}

// The retained eager oracles on the same instances, pinning the speedup of
// the incremental k-pool engine (equivalence_test.go proves the schedules
// are bit-identical).
func BenchmarkMultiMemHEFTRef1000k4(b *testing.B) {
	benchMultiScheduler(b, multi.MemHEFTReference, 1000, 4, 0.3, false)
}
func BenchmarkMultiMemMinMinRef300k3(b *testing.B) {
	benchMultiScheduler(b, multi.MemMinMinReference, 300, 3, 0.3, false)
}

// --- Peak residency ---

// peakSink keeps the benchmarked MemoryPeaks calls from being optimised
// away.
var peakSink int64

// BenchmarkPeaks3000 measures MemoryPeaks alone on the MemHEFT3000
// schedule: the finalize step a response pays after the engine.
func BenchmarkPeaks3000(b *testing.B) {
	g, p := dualBenchFixture(b, 3000, 0.7)
	s, err := core.MemHEFT(tctx, g, p, core.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peakSink, _ = s.MemoryPeaks()
	}
}

// BenchmarkPeaksK4x1000 is the k-pool twin on the MultiMemHEFT1000k4
// schedule.
func BenchmarkPeaksK4x1000(b *testing.B) {
	params := daggen.LargeParams()
	params.Size = 1000
	g, err := daggen.Generate(params, 7)
	if err != nil {
		b.Fatal(err)
	}
	in, p := experiments.KPoolBench(g, 4, 0.3)
	s, err := multi.MemHEFT(tctx, in, p, multi.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peakSink = s.MemoryPeaks()[0]
	}
}

// --- Sweep engine throughput ---

// benchSweep measures one full 64-point sweep per iteration on the shared
// deterministic fixture (experiments.SweepBench, also the cmd/benchjson
// workload): a warm n=1000 session over 16 feasible-band memory fractions
// × both memory-aware heuristics × 2 seeds. The session is warmed with one
// untimed run, as a sweep service holding its sessions in the LRU cache
// would see; with workers > 1 each iteration still pays the per-fork
// ranking once per worker, which is part of the fan-out cost.
// BenchmarkSweep64x1000Workers1 against BenchmarkSweep64x1000WorkersMax is
// the engine's scaling headline (equal on a single-core host; the results
// are bit-identical at every worker count, see repro/sweep's tests). Both
// pin Replay to off so they keep measuring the from-scratch engine;
// BenchmarkSweep64x1000Replay runs the identical workload under the default
// warm-start policy, so Replay/Workers1 is the capacity-delta replay
// speedup on bit-identical results.
func benchSweep(b *testing.B, workers int, replay string) {
	sess, spec, err := experiments.SweepBench(1000, workers)
	if err != nil {
		b.Fatal(err)
	}
	spec.Replay = replay
	if _, err := sweep.Run(tctx, sess, spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(tctx, sess, spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.Feasible == 0 {
			b.Fatal("sweep fixture produced no feasible point")
		}
	}
}

func BenchmarkSweep64x1000Workers1(b *testing.B)   { benchSweep(b, 1, sweep.ReplayOff) }
func BenchmarkSweep64x1000WorkersMax(b *testing.B) { benchSweep(b, 0, sweep.ReplayOff) }
func BenchmarkSweep64x1000Replay(b *testing.B)     { benchSweep(b, 1, sweep.ReplayAuto) }

// --- Session fork cost ---

// benchFork measures Session.Fork plus one schedule on the fork, against a
// parent whose memos are fully warm. The warm (copy-on-write) fork inherits
// the parent's rank and priority memos behind frozen views, so its first
// schedule costs one engine pass; the cold fork pays ranking again — the
// gap is the price ForkCold buys isolation with.
func benchFork(b *testing.B, opts ...memsched.ForkOption) {
	params := daggen.LargeParams()
	params.Size = 1000
	g, err := daggen.Generate(params, 7)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := memsched.NewSession(g)
	if err != nil {
		b.Fatal(err)
	}
	p := memsched.NewDualPlatform(2, 2, memsched.Unlimited, memsched.Unlimited)
	if _, err := sess.Schedule(tctx, p, memsched.WithSeed(7)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Fork(opts...).Schedule(tctx, p, memsched.WithSeed(7)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForkWarm1000(b *testing.B) { benchFork(b) }
func BenchmarkForkCold1000(b *testing.B) { benchFork(b, memsched.ForkCold()) }

// --- Inline requests through the service tiers ---

// inlineBody is a POST /v1/schedule body carrying a daggen n=1000 graph
// inline on an unbounded 2+2-processor platform.
func inlineBody(b *testing.B) []byte {
	params := daggen.LargeParams()
	params.Size = 1000
	g, err := daggen.Generate(params, 7)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(serve.ScheduleRequest{Graph: raw, Pools: []serve.PoolSpec{{Procs: 2}, {Procs: 2}}, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// stubReplica answers every forwarded request with an empty 200, so a
// router benchmark times the router alone.
type stubReplica struct{}

func (stubReplica) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(strings.NewReader("{}")), Request: r}, nil
}

// benchInline serves each body through h once untimed (warming every
// cache a repeated request would find warm), then measures one request
// per iteration, cycling through the bodies.
func benchInline(b *testing.B, h http.Handler, bodies ...[]byte) {
	serveOnce := func(body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	for _, body := range bodies {
		serveOnce(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(bodies[i%len(bodies)])
	}
}

// BenchmarkRouterInline1000 measures a warm inline request through a
// cluster router over three stub replicas: body read, routing key and
// forward, without the replica's own work.
func BenchmarkRouterInline1000(b *testing.B) {
	rt, err := cluster.NewRouter(cluster.Config{
		Replicas:  []cluster.Replica{{ID: "r0", URL: "http://r0"}, {ID: "r1", URL: "http://r1"}, {ID: "r2", URL: "http://r2"}},
		Transport: stubReplica{},
	})
	if err != nil {
		b.Fatal(err)
	}
	benchInline(b, rt.Handler(), inlineBody(b))
}

// BenchmarkReplicaInline1000 measures the same warm inline request served
// by one replica: decode, session resolve, schedule and encode.
func BenchmarkReplicaInline1000(b *testing.B) {
	benchInline(b, serve.NewServer(serve.Config{}).Handler(), inlineBody(b))
}

// BenchmarkReplicaInlineMiss1000 alternates two encodings of the same
// inline graph through a replica that keeps one digest and one session:
// every request misses the digest memo, so it decodes, validates and
// hashes the graph, then finds its session warm.
func BenchmarkReplicaInlineMiss1000(b *testing.B) {
	body := inlineBody(b)
	var req serve.ScheduleRequest
	if err := json.Unmarshal(body, &req); err != nil {
		b.Fatal(err)
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, req.Graph, "", " "); err != nil {
		b.Fatal(err)
	}
	respaced := bytes.Replace(body, req.Graph, spaced.Bytes(), 1)
	if bytes.Equal(respaced, body) {
		b.Fatal("graph bytes not verbatim in the request body")
	}
	benchInline(b, serve.NewServer(serve.Config{CacheSize: 1}).Handler(), body, respaced)
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationBroadcastPipeline compares scheduling the LU graph with
// and without the paper's broadcast pipelines (fictitious task chains vs
// direct fan-out). The pipelined graph is bigger but its per-task memory
// needs are bounded, which is what lets MemHEFT run in small memories.
func BenchmarkAblationBroadcastPipeline(b *testing.B) {
	for _, pipeline := range []bool{true, false} {
		name := "direct"
		if pipeline {
			name = "pipeline"
		}
		b.Run(name, func(b *testing.B) {
			cfg := linalg.DefaultConfig(8)
			cfg.Pipeline = pipeline
			g, err := linalg.LU(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// 32 tiles per memory: the pipelined graph schedules,
			// the direct fan-out does not (its getrf/trsm outputs
			// materialise all copies at once).
			p := experiments.MiragePlatform().WithBounds(32, 32)
			b.ResetTimer()
			fails := 0
			for i := 0; i < b.N; i++ {
				if _, err := core.MemHEFT(tctx, g, p, core.Options{Seed: 1}); err != nil {
					fails++
				}
			}
			b.ReportMetric(float64(fails)/float64(b.N), "failrate")
		})
	}
}

// BenchmarkAblationTieBreak compares deterministic rank order (seed-fixed)
// against fresh random tie-breaking per run, measuring the scheduling cost
// of the priority phase.
func BenchmarkAblationTieBreak(b *testing.B) {
	g, err := daggen.Generate(daggen.SmallParams(), 3)
	if err != nil {
		b.Fatal(err)
	}
	p := experiments.RandomPlatform().WithBounds(platform.Unlimited, platform.Unlimited)
	b.Run("fixed-seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MemHEFT(tctx, g, p, core.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-run-seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MemHEFT(tctx, g, p, core.Options{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationStaircase measures the core memory-function primitives
// on a staircase with many pieces (the l in the paper's O(l) analysis).
func BenchmarkAblationStaircase(b *testing.B) {
	build := func() *memfn.Staircase {
		s := memfn.New(1 << 20)
		for i := 0; i < 512; i++ {
			s.Reserve(float64(2*i), float64(2*i+1), int64(i%37)+1)
		}
		return s
	}
	b.Run("EarliestFit", func(b *testing.B) {
		s := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.EarliestFit(0, 1<<19)
		}
	})
	b.Run("Reserve", func(b *testing.B) {
		s := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reserve(float64(i%1024), float64(i%1024+3), 5)
			s.Reserve(float64(i%1024), float64(i%1024+3), -5)
		}
	})
}

// BenchmarkExactSearchPaperExample measures the branch-and-bound reference
// on the paper's toy instance at the memory bound where the optimum shifts.
func BenchmarkExactSearchPaperExample(b *testing.B) {
	g := dag.PaperExample()
	p := platform.New(1, 1, 4, 4)
	for i := 0; i < b.N; i++ {
		res, err := exact.Solve(tctx, g, p, exact.Options{})
		if err != nil || res.Makespan != 7 {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// BenchmarkILPBuild measures assembling the full §4 ILP for the paper
// example (the solve itself is exercised by the ilp tests).
func BenchmarkILPBuild(b *testing.B) {
	g := dag.PaperExample()
	p := platform.New(1, 1, 5, 5)
	for i := 0; i < b.N; i++ {
		if _, err := ilp.Build(g, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInsertion compares the paper's append-only processor
// policy against classical HEFT's insertion-based policy, reporting the
// makespan ratio (insertion/append) alongside the timing.
func BenchmarkAblationInsertion(b *testing.B) {
	params := daggen.SmallParams()
	params.Size = 80
	g, err := daggen.Generate(params, 13)
	if err != nil {
		b.Fatal(err)
	}
	p := experiments.RandomPlatform().WithBounds(platform.Unlimited, platform.Unlimited)
	ref, err := core.MemHEFT(tctx, g, p, core.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MemHEFT(tctx, g, p, core.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insertion", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			s, err := core.MemHEFTInsertion(tctx, g, p, core.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			last = s.Makespan()
		}
		b.ReportMetric(last/ref.Makespan(), "makespan-ratio")
	})
}

// BenchmarkAblationOnlineVsStatic compares the static MemMinMin schedule
// against the online (StarPU-style) dispatcher on the same LU instance,
// reporting the online/static makespan ratio.
func BenchmarkAblationOnlineVsStatic(b *testing.B) {
	g, err := linalg.LU(linalg.DefaultConfig(6))
	if err != nil {
		b.Fatal(err)
	}
	p := experiments.MiragePlatform().WithBounds(120, 120)
	static, err := core.MemMinMin(tctx, g, p, core.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("static-memminmin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MemMinMin(tctx, g, p, core.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("online-eft", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(tctx, g, p, sim.Options{Policy: sim.EFTPolicy})
			if err != nil {
				b.Fatal(err)
			}
			last = res.Makespan()
		}
		b.ReportMetric(last/static.Makespan(), "makespan-ratio")
	})
}

// BenchmarkAblationMultiPool compares the dual-memory scheduler against the
// k-pool generalisation on the same instance: the 2-pool run must match
// core's behaviour (verified by tests) at comparable cost, and the 4-pool
// run shows the cost of evaluating more memories per decision.
func BenchmarkAblationMultiPool(b *testing.B) {
	params := daggen.SmallParams()
	params.Size = 60
	g, err := daggen.Generate(params, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("core-2mem", func(b *testing.B) {
		p := platform.New(2, 2, 500, 500)
		for i := 0; i < b.N; i++ {
			if _, err := core.MemHEFT(tctx, g, p, core.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multi-2pool", func(b *testing.B) {
		in := multi.FromDual(g)
		p := multi.NewPlatform(multi.Pool{Procs: 2, Capacity: 500}, multi.Pool{Procs: 2, Capacity: 500})
		for i := 0; i < b.N; i++ {
			if _, err := multi.MemHEFT(tctx, in, p, multi.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multi-4pool", func(b *testing.B) {
		times := make([][]float64, g.NumTasks())
		for i := 0; i < g.NumTasks(); i++ {
			t := g.Task(dag.TaskID(i))
			times[i] = []float64{t.WBlue, t.WRed, t.WBlue + 1, t.WRed + 1}
		}
		in := multi.NewInstance(g, times)
		p := multi.NewPlatform(
			multi.Pool{Procs: 1, Capacity: 250}, multi.Pool{Procs: 1, Capacity: 250},
			multi.Pool{Procs: 1, Capacity: 250}, multi.Pool{Procs: 1, Capacity: 250})
		for i := 0; i < b.N; i++ {
			if _, err := multi.MemHEFT(tctx, in, p, multi.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGraphGeneration measures the workload generators.
func BenchmarkGraphGeneration(b *testing.B) {
	b.Run("daggen-1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := daggen.Generate(daggen.LargeParams(), int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lu-13", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := linalg.LU(linalg.DefaultConfig(13)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cholesky-13", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := linalg.Cholesky(linalg.DefaultConfig(13)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// tctx is the shared background context of the package benchmarks.
var tctx = context.Background()
