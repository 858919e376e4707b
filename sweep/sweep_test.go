package sweep_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	memsched "repro"
	"repro/sweep"
)

// testGraph builds a deterministic random DAG of the given size.
func testGraph(t testing.TB, size int, seed int64) *memsched.Graph {
	t.Helper()
	params := memsched.SmallRandParams()
	params.Size = size
	g, err := memsched.GenerateRandom(params, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testSession(t testing.TB, size int, seed int64) *memsched.Session {
	t.Helper()
	sess, err := memsched.NewSession(testGraph(t, size, seed))
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func dualBase() memsched.Platform {
	return memsched.NewDualPlatform(2, 2, memsched.Unlimited, memsched.Unlimited)
}

// alphas16 is the 16-step fraction grid of the determinism tests.
func alphas16() []float64 {
	out := make([]float64, 16)
	for i := range out {
		out[i] = float64(i+1) / 16
	}
	return out
}

func TestGridCompileOrderAndAxes(t *testing.T) {
	sess := testSession(t, 40, 1)
	spec := sweep.Spec{
		Base:       dualBase(),
		Alphas:     []float64{0.5, 1.0},
		Schedulers: []string{"memheft", "memminmin"},
		Seeds:      []int64{3, 4},
	}
	if got := spec.NumPoints(); got != 8 {
		t.Fatalf("NumPoints = %d, want 8", got)
	}
	res, err := sweep.Run(context.Background(), sess, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 {
		t.Fatalf("got %d points", len(res.Points))
	}
	// Axis-major, then scheduler, then seed; indices contiguous.
	for i, pr := range res.Points {
		if pr.Index != i {
			t.Fatalf("point %d reports index %d", i, pr.Index)
		}
		wantAxis := i / 4
		wantSched := []string{"memheft", "memheft", "memminmin", "memminmin"}[i%4]
		wantSeed := []int64{3, 4}[i%2]
		if pr.Point.Axis != wantAxis || pr.Point.Scheduler != wantSched || pr.Point.Seed != wantSeed {
			t.Fatalf("point %d = %+v, want axis %d sched %s seed %d", i, pr.Point, wantAxis, wantSched, wantSeed)
		}
		if pr.Point.Alpha != spec.Alphas[wantAxis] || pr.Point.X != spec.Alphas[wantAxis] {
			t.Fatalf("point %d alpha/X = %g/%g", i, pr.Point.Alpha, pr.Point.X)
		}
	}
	sum := res.Summary
	if sum == nil || sum.Points != 8 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Peak <= 0 || sum.RefMakespan <= 0 {
		t.Fatalf("HEFT reference not measured: peak %d ref %g", sum.Peak, sum.RefMakespan)
	}
	if len(sum.Curves) != 2 || len(sum.Curves[0].Makespan) != 2 {
		t.Fatalf("curves = %+v", sum.Curves)
	}
}

// TestDeterministicAcrossWorkers is the acceptance test of the engine: a
// concurrent sweep must produce results bit-identical to workers=1 — same
// makespans, peaks, feasibility and summary — regardless of completion
// order. Run under -race this also proves the worker pool and the forked
// sessions are race-clean.
func TestDeterministicAcrossWorkers(t *testing.T) {
	spec := sweep.Spec{
		Base:       dualBase(),
		Alphas:     alphas16(),
		Schedulers: []string{"memheft", "memminmin"},
		Seeds:      []int64{1, 2},
	}
	baseline := runWith(t, spec, 1)
	for _, workers := range []int{2, 8} {
		got := runWith(t, spec, workers)
		comparePoints(t, baseline, got, workers)
	}
}

func runWith(t *testing.T, spec sweep.Spec, workers int) *sweep.Result {
	t.Helper()
	spec.Workers = workers
	sess := testSession(t, 150, 7)
	res, err := sweep.Run(context.Background(), sess, spec)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if res.Summary == nil || res.Summary.Points != len(res.Points) {
		t.Fatalf("workers=%d: summary %+v", workers, res.Summary)
	}
	return res
}

func comparePoints(t *testing.T, want, got *sweep.Result, workers int) {
	t.Helper()
	if len(want.Points) != len(got.Points) {
		t.Fatalf("workers=%d: %d points vs %d", workers, len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		w, g := want.Points[i], got.Points[i]
		if w.Index != g.Index || w.Feasible != g.Feasible || w.Reason != g.Reason || w.Makespan != g.Makespan {
			t.Fatalf("workers=%d point %d: got {feasible %v reason %q ms %v}, want {feasible %v reason %q ms %v}",
				workers, i, g.Feasible, g.Reason, g.Makespan, w.Feasible, w.Reason, w.Makespan)
		}
		if len(w.Peaks) != len(g.Peaks) {
			t.Fatalf("workers=%d point %d: peaks %v vs %v", workers, i, g.Peaks, w.Peaks)
		}
		for k := range w.Peaks {
			if w.Peaks[k] != g.Peaks[k] {
				t.Fatalf("workers=%d point %d: peaks %v vs %v", workers, i, g.Peaks, w.Peaks)
			}
		}
	}
	ws, gs := want.Summary, got.Summary
	if ws.Feasible != gs.Feasible || ws.BestIndex != gs.BestIndex || ws.BestMakespan != gs.BestMakespan ||
		ws.RefMakespan != gs.RefMakespan || ws.Peak != gs.Peak {
		t.Fatalf("workers=%d summary: %+v vs %+v", workers, gs, ws)
	}
	for si := range ws.Curves {
		for ai := range ws.Curves[si].Makespan {
			w, g := ws.Curves[si].Makespan[ai], gs.Curves[si].Makespan[ai]
			if w != g && !(math.IsNaN(w) && math.IsNaN(g)) {
				t.Fatalf("workers=%d curve %s axis %d: %v vs %v", workers, ws.Curves[si].Scheduler, ai, g, w)
			}
		}
		if ws.Frontier[si] != gs.Frontier[si] {
			t.Fatalf("workers=%d frontier: %+v vs %+v", workers, gs.Frontier[si], ws.Frontier[si])
		}
	}
}

// TestAlphaSweepMatchesDirectSession: every engine point must be exactly
// what a direct Session call on the same derived platform produces.
func TestAlphaSweepMatchesDirectSession(t *testing.T) {
	sess := testSession(t, 60, 3)
	base := dualBase()
	res, err := sweep.Run(context.Background(), sess, sweep.Spec{
		Base:       base,
		Alphas:     []float64{0.4, 0.8},
		Schedulers: []string{"memheft"},
		Seeds:      []int64{5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res.Points {
		bound := int64(pr.Point.Alpha * float64(res.Summary.Peak))
		direct, err := sess.Schedule(context.Background(), base.WithUniformBounds(bound),
			memsched.WithScheduler("memheft"), memsched.WithSeed(5))
		switch {
		case errors.Is(err, memsched.ErrMemoryBound):
			if pr.Feasible {
				t.Fatalf("alpha %g: engine feasible, direct memory-bound", pr.Point.Alpha)
			}
		case err != nil:
			t.Fatal(err)
		default:
			if !pr.Feasible || pr.Makespan != direct.Makespan() {
				t.Fatalf("alpha %g: engine %v/%v, direct %v", pr.Point.Alpha, pr.Feasible, pr.Makespan, direct.Makespan())
			}
		}
	}
}

// TestFrontierAndBest: starving the memory at low alphas yields an
// infeasible region; the frontier marks the first fully feasible axis point
// and the best index points at a feasible minimum.
func TestFrontierAndBest(t *testing.T) {
	sess := testSession(t, 60, 9)
	res, err := sweep.Run(context.Background(), sess, sweep.Spec{
		Base:       dualBase(),
		Alphas:     []float64{0.01, 0.05, 0.5, 1.0},
		Schedulers: []string{"memheft"},
		Seeds:      []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Feasible == 0 || res.Summary.Feasible == len(res.Points) {
		t.Skipf("fixture not discriminating: %d/%d feasible", res.Summary.Feasible, len(res.Points))
	}
	fr := res.Summary.FrontierFor("memheft")
	if fr == nil || fr.Axis <= 0 {
		t.Fatalf("frontier = %+v, want a positive axis", fr)
	}
	best := res.Points[res.Summary.BestIndex]
	if !best.Feasible {
		t.Fatal("best index points at an infeasible point")
	}
	for _, pr := range res.Points {
		if pr.Feasible && pr.Makespan < best.Makespan {
			t.Fatalf("point %d beats the reported best", pr.Index)
		}
		if !pr.Feasible && pr.Reason != "memory_bound" {
			t.Fatalf("infeasible point %d has reason %q", pr.Index, pr.Reason)
		}
	}
}

// TestCancellationPartialOrderedResults: cancelling mid-sweep returns the
// contiguous completed prefix and an explicit context error. workers=1
// makes the cut deterministic: the cancel lands after the third delivery,
// so exactly points 0..3 are delivered.
func TestCancellationPartialOrderedResults(t *testing.T) {
	sess := testSession(t, 60, 11)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen []int
	sum, err := sweep.Stream(ctx, sess, sweep.Spec{
		Base:       dualBase(),
		Alphas:     alphas16(),
		Schedulers: []string{"memheft"},
		Seeds:      []int64{1},
		Workers:    1,
	}, func(pr sweep.PointResult) error {
		seen = append(seen, pr.Index)
		if len(seen) == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum != nil {
		t.Fatal("cancelled sweep still returned a summary")
	}
	if len(seen) != 4 {
		t.Fatalf("delivered %v, want exactly the first 4 points", seen)
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("delivery out of order: %v", seen)
		}
	}
}

// TestRunReturnsPartialPrefixOnCancel: the collected Run variant keeps the
// delivered prefix alongside the error.
func TestRunReturnsPartialPrefixOnCancel(t *testing.T) {
	sess := testSession(t, 60, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts
	res, err := sweep.Run(ctx, sess, sweep.Spec{
		Base:   dualBase(),
		Peak:   1 << 40, // skip the HEFT reference: it would fail on the dead ctx first
		Alphas: []float64{0.5, 1.0},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(res.Points) != 0 || res.Summary != nil {
		t.Fatalf("dead-context sweep delivered %d points, summary %v", len(res.Points), res.Summary)
	}
}

func TestSpecValidation(t *testing.T) {
	sess := testSession(t, 10, 1)
	ctx := context.Background()
	cases := map[string]sweep.Spec{
		"no points":      {},
		"two sources":    {Alphas: []float64{1}, Base: dualBase(), Platforms: []memsched.Platform{dualBase()}},
		"alpha no base":  {Alphas: []float64{1}},
		"bad alpha":      {Alphas: []float64{-1}, Base: dualBase()},
		"bad xs":         {Platforms: []memsched.Platform{dualBase()}, Xs: []float64{1, 2}},
		"unknown sched":  {Platforms: []memsched.Platform{dualBase()}, Schedulers: []string{"nope"}},
		"bad workers":    {Platforms: []memsched.Platform{dualBase()}, Workers: -1},
		"invalid point":  {Points: []sweep.Point{{Platform: memsched.NewPlatform(), Scheduler: "memheft"}}},
		"unknown pt sch": {Points: []sweep.Point{{Platform: dualBase(), Scheduler: "nope"}}},
	}
	for name, spec := range cases {
		if _, err := sweep.Run(ctx, sess, spec); err == nil {
			t.Fatalf("%s: no error", name)
		}
	}
	if _, err := sweep.Run(ctx, nil, sweep.Spec{Platforms: []memsched.Platform{dualBase()}}); err == nil {
		t.Fatal("nil session accepted")
	}
}

// TestFatalPointErrorSurfaces: a point failing for a reason other than
// infeasibility (here: an exact search on a platform whose pool count does
// not match the session's timing matrix) stops the sweep, and the returned
// error names that cause rather than the collateral cancellation of the
// other in-flight points.
func TestFatalPointErrorSurfaces(t *testing.T) {
	g := testGraph(t, 30, 5)
	times := make([][]float64, g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		task := g.Task(memsched.TaskID(i))
		times[i] = []float64{task.WBlue, task.WRed, task.WBlue}
	}
	sess, err := memsched.NewSession(g, memsched.WithPoolTimes(times))
	if err != nil {
		t.Fatal(err)
	}
	p := memsched.NewPlatform(
		memsched.Pool{Procs: 1, Capacity: memsched.Unlimited},
		memsched.Pool{Procs: 1, Capacity: memsched.Unlimited},
		memsched.Pool{Procs: 1, Capacity: memsched.Unlimited},
	)
	two := memsched.NewPlatform(
		memsched.Pool{Procs: 1, Capacity: memsched.Unlimited},
		memsched.Pool{Procs: 1, Capacity: memsched.Unlimited},
	)
	var points []sweep.Point
	for seed := int64(1); seed <= 4; seed++ {
		points = append(points, sweep.Point{Platform: p, Scheduler: "memheft", Seed: seed})
	}
	points = append(points, sweep.Point{Platform: two, Scheduler: sweep.SchedulerOptimal, Seed: 1})
	res, err := sweep.Run(context.Background(), sess, sweep.Spec{Points: points, Workers: 4})
	if err == nil {
		t.Fatal("a pool-count mismatch should be a fatal sweep error")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("collateral cancellation masked the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "pool times") {
		t.Fatalf("error does not name the cause: %v", err)
	}
	if res.Summary != nil {
		t.Fatal("failed sweep still produced a summary")
	}
	for i, pr := range res.Points {
		if pr.Index != i {
			t.Fatalf("partial prefix out of order: %v", res.Points)
		}
	}
}

// TestOptimalAndSimSchedulers: the engine extensions run through
// Session.Optimal and Session.Simulate; optimal may not beat MemHEFT's
// makespan on a toy instance, but must be feasible and no worse than it.
func TestOptimalAndSimSchedulers(t *testing.T) {
	g := memsched.PaperExample()
	sess, err := memsched.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	p := memsched.NewDualPlatform(1, 1, 4, 4)
	res, err := sweep.Run(context.Background(), sess, sweep.Spec{
		Platforms:  []memsched.Platform{p},
		Schedulers: []string{"memheft", sweep.SchedulerOptimal, sweep.SchedulerSimRank, sweep.SchedulerSimEFT},
		Seeds:      []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]sweep.PointResult{}
	for _, pr := range res.Points {
		byName[pr.Point.Scheduler] = pr
	}
	opt := byName[sweep.SchedulerOptimal]
	mh := byName["memheft"]
	if !opt.Feasible || !mh.Feasible {
		t.Fatalf("optimal/memheft infeasible: %+v / %+v", opt, mh)
	}
	if opt.Makespan > mh.Makespan+1e-9 {
		t.Fatalf("optimal %g worse than memheft %g", opt.Makespan, mh.Makespan)
	}
	if opt.Makespan != 7 {
		t.Fatalf("paper example optimum = %g, want 7", opt.Makespan)
	}
	for _, sim := range []string{sweep.SchedulerSimRank, sweep.SchedulerSimEFT} {
		pr, ok := byName[sim]
		if !ok || (!pr.Feasible && pr.Reason != "sim_stuck") {
			t.Fatalf("%s: %+v", sim, pr)
		}
	}
}

// TestKPoolSweep: a pool-times session sweeps k-pool platforms through the
// generalised engine.
func TestKPoolSweep(t *testing.T) {
	g := testGraph(t, 40, 13)
	times := make([][]float64, g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		task := g.Task(memsched.TaskID(i))
		times[i] = []float64{task.WBlue, task.WRed, (task.WBlue + task.WRed) / 2}
	}
	sess, err := memsched.NewSession(g, memsched.WithPoolTimes(times))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(capacity int64) memsched.Platform {
		return memsched.NewPlatform(
			memsched.Pool{Procs: 2, Capacity: capacity},
			memsched.Pool{Procs: 1, Capacity: capacity},
			memsched.Pool{Procs: 1, Capacity: capacity},
		)
	}
	res, err := sweep.Run(context.Background(), sess, sweep.Spec{
		Platforms:  []memsched.Platform{mk(memsched.Unlimited), mk(1)},
		Schedulers: []string{"memheft", "memminmin"},
		Seeds:      []int64{1},
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res.Points[:2] {
		if !pr.Feasible || len(pr.Peaks) != 3 {
			t.Fatalf("unbounded k-pool point infeasible or wrong peaks: %+v", pr)
		}
	}
	for _, pr := range res.Points[2:] {
		if pr.Feasible {
			t.Fatalf("capacity-1 k-pool point feasible: %+v", pr)
		}
	}
}

// TestExplicitPoints: an explicit point list runs verbatim, keeps results
// when asked, and produces no curves.
func TestExplicitPoints(t *testing.T) {
	sess := testSession(t, 30, 2)
	p := dualBase()
	res, err := sweep.Run(context.Background(), sess, sweep.Spec{
		Points: []sweep.Point{
			{Platform: p, Scheduler: "MemHEFT", Seed: 1},
			{Platform: p}, // scheduler defaults to memheft
		},
		KeepResults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	if res.Points[0].Makespan != res.Points[1].Makespan {
		t.Fatal("defaulted point differs from explicit memheft")
	}
	if res.Points[0].Result == nil || res.Points[0].Result.Pools == nil {
		t.Fatal("KeepResults dropped the schedule")
	}
	if res.Summary.Curves != nil || res.Summary.Frontier != nil {
		t.Fatal("explicit points must not fabricate curves")
	}
	if res.Summary.BestIndex != 0 {
		t.Fatalf("best index = %d", res.Summary.BestIndex)
	}
}

// TestForkEquivalence: a forked session produces bit-identical schedules
// and shares the graph hash.
func TestForkEquivalence(t *testing.T) {
	sess := testSession(t, 80, 17)
	fork := sess.Fork()
	if fork.GraphHash() != sess.GraphHash() {
		t.Fatal("fork changed the graph hash")
	}
	p := memsched.NewDualPlatform(2, 2, memsched.Unlimited, memsched.Unlimited)
	a, err := sess.Schedule(context.Background(), p, memsched.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := fork.Schedule(context.Background(), p, memsched.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan() != b.Makespan() {
		t.Fatalf("fork makespan %g != %g", b.Makespan(), a.Makespan())
	}
	for i := range a.Pools.Tasks {
		if a.Pools.Tasks[i] != b.Pools.Tasks[i] {
			t.Fatalf("fork placement differs at task %d", i)
		}
	}
}
