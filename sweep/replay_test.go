package sweep_test

import (
	"context"
	"strings"
	"testing"

	memsched "repro"
	"repro/sweep"
)

// goldenCompare asserts that two sweeps produced bit-identical point
// results: feasibility, reason, makespan and per-pool peaks must match at
// every index. Replay counters and wall times are deliberately excluded —
// they describe how a result was computed, not what it is.
func goldenCompare(t *testing.T, got, want []sweep.PointResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("point count %d vs %d", len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if a.Feasible != b.Feasible || a.Reason != b.Reason || a.Makespan != b.Makespan {
			t.Fatalf("point %d diverged: feas %v/%v reason %q/%q makespan %g/%g (%s alpha %g seed %d)",
				i, a.Feasible, b.Feasible, a.Reason, b.Reason, a.Makespan, b.Makespan,
				a.Point.Scheduler, a.Point.Alpha, a.Point.Seed)
		}
		if len(a.Peaks) != len(b.Peaks) {
			t.Fatalf("point %d peak arity %d vs %d", i, len(a.Peaks), len(b.Peaks))
		}
		for k := range a.Peaks {
			if a.Peaks[k] != b.Peaks[k] {
				t.Fatalf("point %d pool %d peak %d vs %d", i, k, a.Peaks[k], b.Peaks[k])
			}
		}
	}
}

func totalReplayed(points []sweep.PointResult) (placements int, truncated int) {
	for _, pr := range points {
		placements += pr.ReplayedPlacements
		if pr.ReplayTruncated {
			truncated++
		}
	}
	return placements, truncated
}

// denseAlphas spans from comfortably feasible down into the infeasible
// band, so replayed chains cross feasibility frontiers.
func denseAlphas(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1.0 - 0.9*float64(i)/float64(n-1) // 1.0 .. 0.1
	}
	return out
}

// TestReplayGoldenEquivalenceDual is the acceptance test of capacity-delta
// replay on a plain (dual-time) session: a replayed sweep must be
// bit-identical to the from-scratch engine at every point, for one worker
// and for many, over a dense alpha grid that crosses the feasibility
// frontier — while actually replaying a nonzero number of placements.
func TestReplayGoldenEquivalenceDual(t *testing.T) {
	sess := testSession(t, 80, 7)
	spec := sweep.Spec{
		Base:       dualBase(),
		Alphas:     denseAlphas(12),
		Schedulers: []string{"memheft", "memminmin", "heft"},
		Seeds:      []int64{7, 8},
		Replay:     sweep.ReplayOff,
		Workers:    1,
	}
	oracle, err := sweep.Run(context.Background(), sess.Fork(memsched.ForkCold()), spec)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := totalReplayed(oracle.Points); p != 0 {
		t.Fatalf("ReplayOff replayed %d placements", p)
	}
	for _, workers := range []int{1, 4} {
		spec.Replay = sweep.ReplayAuto
		spec.Workers = workers
		res, err := sweep.Run(context.Background(), sess.Fork(), spec)
		if err != nil {
			t.Fatal(err)
		}
		goldenCompare(t, res.Points, oracle.Points)
		if workers == 1 {
			placements, truncated := totalReplayed(res.Points)
			if placements == 0 {
				t.Fatal("replay-auto sweep replayed nothing")
			}
			if truncated == 0 {
				t.Fatal("dense frontier-crossing grid never truncated a replay")
			}
			t.Logf("dual: %d replayed placements, %d truncated points", placements, truncated)
		}
	}
}

// TestReplayGoldenEquivalenceKPool mirrors the dual golden test on the
// generalised 3-pool engine (explicit pool-times session).
func TestReplayGoldenEquivalenceKPool(t *testing.T) {
	g := testGraph(t, 60, 11)
	times := make([][]float64, g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		task := g.Task(memsched.TaskID(i))
		times[i] = []float64{task.WBlue, task.WRed, (task.WBlue + task.WRed) / 2}
	}
	sess, err := memsched.NewSession(g, memsched.WithPoolTimes(times))
	if err != nil {
		t.Fatal(err)
	}
	base := memsched.NewPlatform(
		memsched.Pool{Procs: 2, Capacity: memsched.Unlimited},
		memsched.Pool{Procs: 1, Capacity: memsched.Unlimited},
		memsched.Pool{Procs: 1, Capacity: memsched.Unlimited},
	)
	spec := sweep.Spec{
		Base:       base,
		Alphas:     denseAlphas(10),
		Schedulers: []string{"memheft", "memminmin"},
		Seeds:      []int64{11},
		Replay:     sweep.ReplayOff,
		Workers:    1,
	}
	oracle, err := sweep.Run(context.Background(), sess.Fork(memsched.ForkCold()), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		spec.Replay = sweep.ReplayAuto
		spec.Workers = workers
		res, err := sweep.Run(context.Background(), sess.Fork(), spec)
		if err != nil {
			t.Fatal(err)
		}
		goldenCompare(t, res.Points, oracle.Points)
		if workers == 1 {
			if placements, _ := totalReplayed(res.Points); placements == 0 {
				t.Fatal("k-pool replay-auto sweep replayed nothing")
			}
		}
	}
}

// TestReplaySpecValidation pins the Replay policy surface: auto, off and ""
// are accepted, anything else is rejected before compilation.
func TestReplaySpecValidation(t *testing.T) {
	sess := testSession(t, 20, 3)
	spec := sweep.Spec{
		Base:   dualBase(),
		Alphas: []float64{1.0},
		Replay: "sometimes",
	}
	if _, err := sweep.Run(context.Background(), sess, spec); err == nil ||
		!strings.Contains(err.Error(), "replay policy") {
		t.Fatalf("bad replay policy: err = %v", err)
	}
	for _, ok := range []string{"", sweep.ReplayAuto, sweep.ReplayOff, "AUTO"} {
		spec.Replay = ok
		if _, err := sweep.Run(context.Background(), sess, spec); err != nil {
			t.Fatalf("replay policy %q rejected: %v", ok, err)
		}
	}
}

// TestReplayCancellationMidChain cancels a replayed sweep from its sink:
// the delivered results must still be the ordered, bit-identical prefix.
func TestReplayCancellationMidChain(t *testing.T) {
	sess := testSession(t, 60, 7)
	spec := sweep.Spec{
		Base:       dualBase(),
		Alphas:     denseAlphas(10),
		Schedulers: []string{"memheft"},
		Seeds:      []int64{7},
		Workers:    1,
	}
	oracle, err := sweep.Run(context.Background(), sess.Fork(memsched.ForkCold()), sweep.Spec{
		Base: spec.Base, Alphas: spec.Alphas, Schedulers: spec.Schedulers,
		Seeds: spec.Seeds, Workers: 1, Replay: sweep.ReplayOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []sweep.PointResult
	_, err = sweep.Stream(ctx, sess.Fork(), spec, func(pr sweep.PointResult) error {
		got = append(got, pr)
		if len(got) == 4 {
			cancel()
		}
		return nil
	})
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if len(got) < 4 {
		t.Fatalf("only %d results delivered before cancel", len(got))
	}
	goldenCompare(t, got, oracle.Points[:len(got)])
}

// TestReplayExplicitPointsNeverChain pins that explicit point lists skip
// chaining entirely: every point runs from scratch even under ReplayAuto.
func TestReplayExplicitPointsNeverChain(t *testing.T) {
	sess := testSession(t, 30, 5)
	p1 := memsched.NewDualPlatform(2, 2, 100000, 100000)
	p2 := memsched.NewDualPlatform(2, 2, 50000, 50000)
	spec := sweep.Spec{
		Points: []sweep.Point{
			{Platform: p1, Scheduler: "memheft", Seed: 5},
			{Platform: p2, Scheduler: "memheft", Seed: 5},
		},
		Replay: sweep.ReplayAuto,
	}
	res, err := sweep.Run(context.Background(), sess, spec)
	if err != nil {
		t.Fatal(err)
	}
	if placements, _ := totalReplayed(res.Points); placements != 0 {
		t.Fatalf("explicit points replayed %d placements", placements)
	}
}
