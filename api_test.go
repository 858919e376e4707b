package memsched

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
)

// The TestFacade* tests walk the package-level surface — graph building,
// generators, platforms, sentinels — with every scheduling call made
// through a Session.

func TestFacadeQuickstartFlow(t *testing.T) {
	g := NewGraph()
	a := g.AddTask("prepare", 3, 1)
	b := g.AddTask("solve", 6, 3)
	g.MustAddEdge(a, b, 2, 1)

	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Schedule(context.Background(), NewDualPlatform(2, 1, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Makespan() <= 0 {
		t.Fatal("nonpositive makespan")
	}
}

func TestFacadeSchedulersRegistered(t *testing.T) {
	names := Schedulers()
	for _, name := range []string{"heft", "minmin", "memheft", "memminmin", "memheft-insertion"} {
		if !slices.Contains(names, name) {
			t.Fatalf("%s not registered: %v", name, names)
		}
	}
	sess, err := NewSession(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Schedule(context.Background(), NewDualPlatform(1, 1, 10, 10), WithScheduler("nope")); err == nil {
		t.Fatal("bad name accepted")
	}
}

func TestFacadeErrMemoryBound(t *testing.T) {
	sess, err := NewSession(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Schedule(context.Background(), NewDualPlatform(1, 1, 2, 2), WithScheduler("memminmin"))
	if !errors.Is(err, ErrMemoryBound) {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadeGraphJSONRoundTrip(t *testing.T) {
	g := PaperExample()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != 4 || back.NumEdges() != 4 {
		t.Fatal("round trip lost structure")
	}
}

func TestFacadeOptimalOnPaperExample(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Optimal(ctx, NewDualPlatform(1, 1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Proven || res.Pools == nil || res.Makespan() != 7 {
		t.Fatalf("proven=%v makespan=%g", res.Stats.Proven, res.Makespan())
	}
	// Infeasible case: no schedule, proven.
	res, err = sess.Optimal(ctx, NewDualPlatform(1, 1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pools != nil || !res.Stats.Proven {
		t.Fatalf("infeasible case: schedule=%v proven=%v", res.Pools != nil, res.Stats.Proven)
	}
}

func TestFacadeLowerBound(t *testing.T) {
	lb, err := LowerBound(PaperExample(), NewDualPlatform(1, 1, 10, 10))
	if err != nil || lb != 5 {
		t.Fatalf("lb=%g err=%v", lb, err)
	}
	sess, err := NewSession(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	if slb, err := sess.LowerBound(NewDualPlatform(1, 1, 10, 10)); err != nil || slb != lb {
		t.Fatalf("session lb=%g err=%v, package lb=%g", slb, err, lb)
	}
}

func TestFacadeGenerators(t *testing.T) {
	g, err := GenerateRandom(SmallRandParams(), 1)
	if err != nil || g.NumTasks() != 30 {
		t.Fatalf("random: %v", err)
	}
	if LargeRandParams().Size != 1000 {
		t.Fatal("large params wrong")
	}
	lu, err := LUGraph(DefaultLinalgConfig(3))
	if err != nil || lu.NumTasks() == 0 {
		t.Fatalf("lu: %v", err)
	}
	ch, err := CholeskyGraph(DefaultLinalgConfig(3))
	if err != nil || ch.NumTasks() == 0 {
		t.Fatalf("cholesky: %v", err)
	}
}

func TestFacadeMemoryConstants(t *testing.T) {
	p := NewDualPlatform(1, 1, Unlimited, Unlimited)
	if !strings.Contains(p.String(), "inf") {
		t.Fatal("Unlimited not formatted as inf")
	}
	if got := NewDualPlatform(2, 1, 8, 4).String(); got != "platform{2@8 1@4}" {
		t.Fatalf("dual platform formatted as %q", got)
	}
}

func TestFacadeMultiPool(t *testing.T) {
	ctx := context.Background()
	g := PaperExample()
	inst := DualInstance(g)
	sess, err := NewSession(g, WithPoolTimes(inst.Times))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(Pool{Procs: 1, Capacity: 10}, Pool{Procs: 1, Capacity: 10})
	for _, name := range []string{"memheft", "memminmin"} {
		res, err := sess.Schedule(ctx, p, WithScheduler(name), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Pools.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(res.Pools.MemoryPeaks()) != 2 {
			t.Fatal("peak count")
		}
	}
	// Differential against a plain session on the same platform.
	plain, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := plain.Schedule(ctx, NewDualPlatform(1, 1, 10, 10), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := sess.Schedule(ctx, p, WithScheduler("memheft"), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if dual.Makespan() != ms.Pools.Makespan() {
		t.Fatalf("dual %g vs multi %g", dual.Makespan(), ms.Pools.Makespan())
	}
	// Tiny memories must error with the sentinel.
	tiny := NewPlatform(Pool{Procs: 1, Capacity: 2}, Pool{Procs: 1, Capacity: 2})
	if _, err := sess.Schedule(ctx, tiny, WithScheduler("memheft")); !errors.Is(err, ErrMemoryBound) {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadeEndToEndLU(t *testing.T) {
	// A miniature of the Figure 14 pipeline through the public API only.
	ctx := context.Background()
	g, err := LUGraph(DefaultLinalgConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sess.Schedule(ctx, NewDualPlatform(12, 3, Unlimited, Unlimited), WithScheduler("heft"), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	peak := slices.Max(ref.PeakResidency())
	res, err := sess.Schedule(ctx, NewDualPlatform(12, 3, peak/2, peak/2), WithSeed(1))
	if err != nil {
		t.Fatalf("MemHEFT at half the HEFT peak: %v", err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if pk := res.PeakResidency(); pk[0] > peak/2 || pk[1] > peak/2 {
		t.Fatalf("peaks %v exceed bound %d", pk, peak/2)
	}
}

func TestFacadeSimulateAndInsertion(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	p := NewDualPlatform(1, 1, 10, 10)
	for _, pol := range []SimPolicy{SimRankPolicy, SimEFTPolicy} {
		res, err := sess.Simulate(ctx, p, WithPolicy(pol), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Simulate(ctx, NewDualPlatform(1, 1, 2, 2)); !errors.Is(err, ErrSimStuck) {
		t.Fatalf("err = %v", err)
	}
	res, err := sess.Schedule(ctx, p, WithInsertion(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}
