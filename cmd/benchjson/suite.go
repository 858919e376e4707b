package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	memsched "repro"
	"repro/cluster"
	"repro/internal/daggen"
	"repro/internal/experiments"
	"repro/internal/multi"
	"repro/serve"
	"repro/sweep"
)

// Case is one named benchmark configuration. Dual-memory cases (Pools == 0)
// run through the public Session API; k-pool cases (Pools >= 2) run the
// generalised engine on the shared deterministic fixture of
// experiments.KPoolBench, with Ref selecting the retained eager oracle
// instead of the incremental scheduler; sweep cases (Sweep == true) run the
// 64-point fixture of bench_test.go through the parallel sweep engine with
// the given worker bound (0 = GOMAXPROCS) and replay policy; fork cases
// (Fork != "") measure Session.Fork plus one schedule on the fork; peak
// cases (Peaks == true) schedule the dual or k-pool fixture once and
// measure MemoryPeaks on the result; inline cases (Inline != "") serve a
// warm POST /v1/schedule carrying the graph inline through a cluster
// router over stub replicas ("router") or one replica ("replica"), or
// alternate two encodings of the graph through a one-entry replica
// ("replica-miss": every request misses the digest memo and finds the
// session warm).
type Case struct {
	Name      string
	Scheduler string // registry name passed to WithScheduler
	Size      int
	Alpha     float64
	Pools     int
	Ref       bool
	Sweep     bool
	Workers   int
	Replay    string // sweep replay policy; "" keeps the engine default (auto)
	Fork      string // "warm" or "cold": benchmark Fork()+Schedule instead
	Peaks     bool   // benchmark MemoryPeaks on one fixed schedule instead
	Inline    string // "router", "replica" or "replica-miss": benchmark one inline request instead
}

// defaultCases is the tracked suite.
func defaultCases() []Case {
	return []Case{
		// Dual-memory engine via the Session API (PR 1/PR 2 trajectory).
		{Name: "MemHEFT300", Scheduler: "memheft", Size: 300, Alpha: 0.5},
		{Name: "MemMinMin300", Scheduler: "memminmin", Size: 300, Alpha: 0.5},
		{Name: "HEFT1000", Scheduler: "heft", Size: 1000, Alpha: 1},
		{Name: "MemHEFT3000", Scheduler: "memheft", Size: 3000, Alpha: 0.7},
		{Name: "MemHEFT10000", Scheduler: "memheft", Size: 10000, Alpha: 0.9},
		// k-pool engine (PR 3): incremental vs the retained eager oracle.
		{Name: "MultiMemHEFT300k3", Scheduler: "memheft", Size: 300, Alpha: 0.3, Pools: 3},
		{Name: "MultiMemHEFT1000k4", Scheduler: "memheft", Size: 1000, Alpha: 0.3, Pools: 4},
		{Name: "MultiMemHEFT3000k8", Scheduler: "memheft", Size: 3000, Alpha: 0.3, Pools: 8},
		{Name: "MultiMemMinMin1000k4", Scheduler: "memminmin", Size: 1000, Alpha: 0.3, Pools: 4},
		{Name: "MultiMemHEFTRef1000k4", Scheduler: "memheft", Size: 1000, Alpha: 0.3, Pools: 4, Ref: true},
		// Sweep engine (PR 5): one 64-point batch (16 alphas × 2
		// heuristics × 2 seeds) on a warm n=1000 session, single-worker
		// vs full fan-out. On multi-core hardware the ratio of the two
		// is the engine's scaling factor. Both pin replay off so they
		// keep tracking the from-scratch engine.
		{Name: "Sweep64x1000w1", Size: 1000, Sweep: true, Workers: 1, Replay: sweep.ReplayOff},
		{Name: "Sweep64x1000wAll", Size: 1000, Sweep: true, Workers: 0, Replay: sweep.ReplayOff},
		// Warm-start sweep (PR 8): the identical workload under
		// capacity-delta replay. Sweep64x1000w1 / Sweep64x1000Replay is
		// the replay speedup on bit-identical results.
		{Name: "Sweep64x1000Replay", Size: 1000, Sweep: true, Workers: 1, Replay: sweep.ReplayAuto},
		// Copy-on-write forks (PR 8): fork a warm n=1000 session and
		// schedule once. The warm fork inherits rank/priority memos
		// behind frozen views; the cold fork re-ranks from scratch.
		{Name: "ForkWarm1000", Size: 1000, Fork: "warm"},
		{Name: "ForkCold1000", Size: 1000, Fork: "cold"},
		// Peak residency: MemoryPeaks alone on the MemHEFT3000
		// schedule and on the MultiMemHEFT1000k4 one, the finalize step
		// every response pays after the engine.
		{Name: "Peaks3000", Size: 3000, Alpha: 0.7, Peaks: true},
		{Name: "PeaksK4x1000", Size: 1000, Alpha: 0.3, Pools: 4, Peaks: true},
		// Inline requests: a warm POST /v1/schedule re-sending a daggen
		// n=1000 graph inline, through a router over three stub replicas
		// (the routing key alone) and through one replica (decode,
		// session resolve, schedule, encode).
		{Name: "RouterInline1000", Size: 1000, Inline: "router"},
		{Name: "ReplicaInline1000", Size: 1000, Inline: "replica"},
		// The replica's digest-miss path: the same request re-encoded.
		{Name: "ReplicaInlineMiss1000", Size: 1000, Inline: "replica-miss"},
	}
}

// run executes one case exactly like bench_test.go's harnesses: a daggen
// graph, the case's platform, and the per-case memory bound.
// testing.Benchmark self-calibrates the iteration count.
func run(c Case) (Result, error) {
	switch {
	case c.Inline != "":
		return runInline(c)
	case c.Peaks:
		return runPeaks(c)
	case c.Fork != "":
		return runFork(c)
	case c.Sweep:
		return runSweep(c)
	case c.Pools >= 2:
		return runMulti(c)
	default:
		return runDual(c)
	}
}

// runFork measures Session.Fork plus one schedule on the fork against a
// parent with warm memos — the same workload as BenchmarkFork*1000 in
// bench_test.go.
func runFork(c Case) (Result, error) {
	ctx := context.Background()
	params := daggen.LargeParams()
	params.Size = c.Size
	g, err := daggen.Generate(params, 7)
	if err != nil {
		return Result{}, err
	}
	sess, err := memsched.NewSession(g)
	if err != nil {
		return Result{}, err
	}
	p := memsched.NewDualPlatform(2, 2, memsched.Unlimited, memsched.Unlimited)
	if _, err := sess.Schedule(ctx, p, memsched.WithSeed(7)); err != nil {
		return Result{}, err
	}
	var opts []memsched.ForkOption
	if c.Fork == "cold" {
		opts = append(opts, memsched.ForkCold())
	}
	var schedErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Fork(opts...).Schedule(ctx, p, memsched.WithSeed(7)); err != nil {
				schedErr = err
				b.FailNow()
			}
		}
	})
	if schedErr != nil {
		return Result{}, schedErr
	}
	return toResult(br), nil
}

// runSweep measures the parallel sweep engine on the shared deterministic
// 64-point fixture of experiments.SweepBench — the same workload as
// BenchmarkSweep64x1000Workers* in bench_test.go — on a warm session.
func runSweep(c Case) (Result, error) {
	ctx := context.Background()
	sess, spec, err := experiments.SweepBench(c.Size, c.Workers)
	if err != nil {
		return Result{}, err
	}
	spec.Replay = c.Replay
	if _, err := sweep.Run(ctx, sess, spec); err != nil {
		return Result{}, err
	}
	var sweepErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sweep.Run(ctx, sess, spec); err != nil {
				sweepErr = err
				b.FailNow()
			}
		}
	})
	if sweepErr != nil {
		return Result{}, sweepErr
	}
	return toResult(br), nil
}

// runDual measures Session.Schedule on the dual-memory fast path. The
// session is created once (as a server would) and the loop measures the
// steady-state scheduling cost.
func runDual(c Case) (Result, error) {
	ctx := context.Background()
	sess, pp, err := dualFixture(c)
	if err != nil {
		return Result{}, err
	}
	var schedErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Schedule(ctx, pp, memsched.WithScheduler(c.Scheduler), memsched.WithSeed(7)); err != nil {
				schedErr = err
				b.FailNow()
			}
		}
	})
	if schedErr != nil {
		return Result{}, schedErr
	}
	return toResult(br), nil
}

// dualFixture returns the session and platform of a dual-memory case: a
// daggen graph on the random platform, both memories bounded at Alpha
// times the HEFT peak.
func dualFixture(c Case) (*memsched.Session, memsched.Platform, error) {
	params := daggen.LargeParams()
	params.Size = c.Size
	g, err := daggen.Generate(params, 7)
	if err != nil {
		return nil, memsched.Platform{}, err
	}
	p := experiments.RandomPlatform()
	_, peak, err := experiments.HEFTReference(context.Background(), g, p, 7)
	if err != nil {
		return nil, memsched.Platform{}, err
	}
	bound := int64(c.Alpha * float64(peak))
	sess, err := memsched.NewSession(g)
	if err != nil {
		return nil, memsched.Platform{}, err
	}
	return sess, multi.FromDualPlatform(p.WithBounds(bound, bound)), nil
}

// runMulti measures the generalised k-pool engine (or its eager reference
// oracle) on the shared deterministic fixture, holding one cache set across
// iterations as a k-pool session would.
func runMulti(c Case) (Result, error) {
	ctx := context.Background()
	in, p, err := multiFixture(c)
	if err != nil {
		return Result{}, err
	}
	var fn multi.Func
	var caches *multi.Caches
	switch {
	case c.Ref && c.Scheduler == "memheft":
		fn = multi.MemHEFTReference
	case c.Ref:
		fn = multi.MemMinMinReference
	case c.Scheduler == "memheft":
		fn, caches = multi.MemHEFT, multi.NewCaches()
	default:
		fn, caches = multi.MemMinMin, multi.NewCaches()
	}
	var schedErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fn(ctx, in, p, multi.Options{Seed: 7, Caches: caches}); err != nil {
				schedErr = err
				b.FailNow()
			}
		}
	})
	if schedErr != nil {
		return Result{}, schedErr
	}
	return toResult(br), nil
}

// multiFixture returns the instance and platform of a k-pool case.
func multiFixture(c Case) (*multi.Instance, multi.Platform, error) {
	params := daggen.LargeParams()
	params.Size = c.Size
	g, err := daggen.Generate(params, 7)
	if err != nil {
		return nil, multi.Platform{}, err
	}
	in, p := experiments.KPoolBench(g, c.Pools, c.Alpha)
	return in, p, nil
}

// runPeaks computes the MemHEFT schedule of a case's fixture once — through
// the Session on the dual path, with the incremental k-pool engine when
// Pools >= 2 — and measures MemoryPeaks alone on it, the same workload as
// BenchmarkPeaks* in bench_test.go.
func runPeaks(c Case) (Result, error) {
	ctx := context.Background()
	var peaks func()
	if c.Pools >= 2 {
		in, p, err := multiFixture(c)
		if err != nil {
			return Result{}, err
		}
		s, err := multi.MemHEFT(ctx, in, p, multi.Options{Seed: 7})
		if err != nil {
			return Result{}, err
		}
		peaks = func() { s.MemoryPeaks() }
	} else {
		sess, pp, err := dualFixture(c)
		if err != nil {
			return Result{}, err
		}
		res, err := sess.Schedule(ctx, pp, memsched.WithSeed(7))
		if err != nil {
			return Result{}, err
		}
		peaks = func() { res.Schedule.MemoryPeaks() }
	}
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			peaks()
		}
	})
	return toResult(br), nil
}

// runInline measures one warm inline POST /v1/schedule per iteration —
// the same workload as BenchmarkRouterInline1000,
// BenchmarkReplicaInline1000 and BenchmarkReplicaInlineMiss1000 in
// bench_test.go. One untimed request per body warms every cache a
// repeated request finds warm.
func runInline(c Case) (Result, error) {
	params := daggen.LargeParams()
	params.Size = c.Size
	g, err := daggen.Generate(params, 7)
	if err != nil {
		return Result{}, err
	}
	raw, err := json.Marshal(g)
	if err != nil {
		return Result{}, err
	}
	body, err := json.Marshal(serve.ScheduleRequest{Graph: raw, Pools: []serve.PoolSpec{{Procs: 2}, {Procs: 2}}, Seed: 7})
	if err != nil {
		return Result{}, err
	}
	bodies := [][]byte{body}
	var h http.Handler
	switch c.Inline {
	case "router":
		rt, err := cluster.NewRouter(cluster.Config{
			Replicas:  []cluster.Replica{{ID: "r0", URL: "http://r0"}, {ID: "r1", URL: "http://r1"}, {ID: "r2", URL: "http://r2"}},
			Transport: stubReplica{},
		})
		if err != nil {
			return Result{}, err
		}
		h = rt.Handler()
	case "replica":
		h = serve.NewServer(serve.Config{}).Handler()
	case "replica-miss":
		var spaced bytes.Buffer
		if err := json.Indent(&spaced, raw, "", " "); err != nil {
			return Result{}, err
		}
		if !bytes.Contains(body, raw) {
			return Result{}, fmt.Errorf("graph bytes not verbatim in the request body")
		}
		bodies = append(bodies, bytes.Replace(body, raw, spaced.Bytes(), 1))
		h = serve.NewServer(serve.Config{CacheSize: 1}).Handler()
	default:
		return Result{}, fmt.Errorf("unknown inline tier %q", c.Inline)
	}
	serveOnce := func(body []byte) error {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", w.Code, w.Body)
		}
		return nil
	}
	for _, body := range bodies {
		if err := serveOnce(body); err != nil {
			return Result{}, err
		}
	}
	var reqErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if reqErr = serveOnce(bodies[i%len(bodies)]); reqErr != nil {
				b.FailNow()
			}
		}
	})
	if reqErr != nil {
		return Result{}, reqErr
	}
	return toResult(br), nil
}

// stubReplica answers every forwarded request with an empty 200, so the
// router case times the router alone.
type stubReplica struct{}

func (stubReplica) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(strings.NewReader("{}")), Request: r}, nil
}

func toResult(br testing.BenchmarkResult) Result {
	return Result{
		NsPerOp:     br.NsPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
		Iterations:  br.N,
	}
}

// runSuite runs every case (repeat times each, keeping the fastest run)
// and assembles the report.
func runSuite(cases []Case, repeat int) (*Report, error) {
	if repeat < 1 {
		repeat = 1
	}
	rep := &Report{Suite: "scheduler-throughput", Benchmarks: make(map[string]Result, len(cases))}
	for _, c := range cases {
		var best Result
		for attempt := 0; attempt < repeat; attempt++ {
			r, err := run(c)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %s: %w", c.Name, err)
			}
			if attempt == 0 || r.NsPerOp < best.NsPerOp {
				best = r
			}
		}
		rep.Benchmarks[c.Name] = best
		fmt.Fprintf(os.Stderr, "%-22s %12d ns/op %8d B/op %6d allocs/op (%d iters)\n",
			c.Name, best.NsPerOp, best.BytesPerOp, best.AllocsPerOp, best.Iterations)
	}
	return rep, nil
}
