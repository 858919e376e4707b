package ilp

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/exact"
	"repro/internal/mip"
	"repro/internal/multi"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// twoChain is the smallest interesting instance: a -> b with a file.
func twoChain(wa1, wa2, wb1, wb2 float64, file int64, comm float64) *dag.Graph {
	g := dag.New()
	a := g.AddTask("a", wa1, wa2)
	b := g.AddTask("b", wb1, wb2)
	g.MustAddEdge(a, b, file, comm)
	return g
}

func TestModelSizesMatchPaperComplexity(t *testing.T) {
	// O(m^2 + mn) variables and constraints (§4).
	g := dag.PaperExample()
	md, err := Build(multi.FromDual(g), multi.DualPlatform(1, 1, 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	n, m := 4, 4
	if md.NumVariables() > 1+4*n+m+4*n*n+6*n*m+4*m*m {
		t.Fatalf("too many variables: %d", md.NumVariables())
	}
	if md.NumBinaries() == 0 || md.NumBinaries() >= md.NumVariables() {
		t.Fatalf("binaries = %d of %d", md.NumBinaries(), md.NumVariables())
	}
	// Every constraint family of Figure 6/7 must be present.
	for _, family := range []string{
		"1-makespan", "2-comm-after-src", "3-comm-before-dst", "4-m", "5-mp",
		"6-sigma", "7-sigmap", "8-c", "9-cp", "10-d", "11-dp", "12-eps",
		"13-procmem", "14-m-pair", "15-sigma-pair", "16-mp-c", "17-cp-pair",
		"18-dp-pair", "19-m-ge-sigma", "20-sigma-ge-c", "21-c-ge-d",
		"22-d-ge-m", "23-delta", "24-work", "25-resource",
		"26a", "26b", "26c", "26d", "26-task-mem",
		"27a", "27b", "27c", "27d", "27-comm-mem",
	} {
		if md.RowCount(family) == 0 {
			t.Fatalf("constraint family %s missing", family)
		}
	}
}

func TestBuildRejectsHugeGraphs(t *testing.T) {
	g := dag.Chain(80, 1, 1, 1, 1)
	if _, err := Build(multi.FromDual(g), multi.DualPlatform(1, 1, 10, 10)); err == nil {
		t.Fatal("80-task model accepted")
	}
}

// TestBuildRejectsOtherPoolCounts checks that the model, whose b_i binary
// picks one of two memories, refuses a 3-pool platform and a 1-pool one.
func TestBuildRejectsOtherPoolCounts(t *testing.T) {
	g := twoChain(1, 2, 3, 4, 1, 1)
	three := multi.NewInstance(g, [][]float64{{1, 2, 3}, {3, 4, 5}})
	p3 := multi.NewPlatform(multi.Pool{Procs: 1, Capacity: 10}, multi.Pool{Procs: 1, Capacity: 10}, multi.Pool{Procs: 1, Capacity: 10})
	if _, err := Build(three, p3); err == nil || !strings.Contains(err.Error(), "needs 2 pools, got 3") {
		t.Fatalf("3-pool platform: Build = %v", err)
	}
	one := multi.NewInstance(g, [][]float64{{1}, {3}})
	if _, err := Solve(one, multi.NewPlatform(multi.Pool{Procs: 1, Capacity: 10}), mip.Options{}); err == nil || !strings.Contains(err.Error(), "needs 2 pools, got 1") {
		t.Fatalf("1-pool platform: Solve = %v", err)
	}
}

func TestSingleTask(t *testing.T) {
	g := dag.New()
	g.AddTask("only", 5, 2)
	res, err := Solve(multi.FromDual(g), multi.DualPlatform(1, 1, 1, 1), mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal || !approx(res.Makespan, 2) {
		t.Fatalf("res = %+v", res)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoChainPrefersFasterMemory(t *testing.T) {
	// a: blue 1 / red 10; b: blue 2 / red 10; both on blue, no comm:
	// makespan 3.
	g := twoChain(1, 10, 2, 10, 1, 5)
	res, err := Solve(multi.FromDual(g), multi.DualPlatform(1, 1, 10, 10), mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal || !approx(res.Makespan, 3) {
		t.Fatalf("res = %+v", res)
	}
	s := res.Schedule
	if s.PoolOf(0) != 0 || s.PoolOf(1) != 0 {
		t.Fatal("tasks not both on blue")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoChainCrossMemoryPaysCommunication(t *testing.T) {
	// a: blue 1 / red 10; b: blue 10 / red 1; comm 3:
	// split: 1 + 3 + 1 = 5; all blue: 11; all red: 11. Optimal 5.
	g := twoChain(1, 10, 10, 1, 2, 3)
	res, err := Solve(multi.FromDual(g), multi.DualPlatform(1, 1, 10, 10), mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal || !approx(res.Makespan, 5) {
		t.Fatalf("res = %+v", res)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Schedule.PoolOf(0) != 0 || res.Schedule.PoolOf(1) != 1 {
		t.Fatal("expected blue -> red split")
	}
}

func TestTwoChainMemoryBoundForcesOneMemory(t *testing.T) {
	// Same costs as the split test, but the red memory is too small for
	// the file: everything must stay on blue -> makespan 11.
	g := twoChain(1, 10, 10, 1, 2, 3)
	res, err := Solve(multi.FromDual(g), multi.DualPlatform(1, 1, 10, 1), mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal || !approx(res.Makespan, 11) {
		t.Fatalf("res = %+v", res)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInfeasibleWhenNoMemoryFits(t *testing.T) {
	g := twoChain(1, 1, 1, 1, 5, 1)
	res, err := Solve(multi.FromDual(g), multi.DualPlatform(1, 1, 2, 2), mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Infeasible {
		t.Fatalf("res = %+v", res)
	}
}

func TestForkTwoChildrenResourceContention(t *testing.T) {
	// A source with two equal children on a 1+1 platform. Children can
	// run in parallel only by splitting across memories (cost: comm 1).
	// All-blue: 1 + 2 + 2 = 5. Split: 1 + max(2, 1+2) = 4.
	g := dag.New()
	a := g.AddTask("a", 1, 1)
	b := g.AddTask("b", 2, 2)
	c := g.AddTask("c", 2, 2)
	g.MustAddEdge(a, b, 1, 1)
	g.MustAddEdge(a, c, 1, 1)
	res, err := Solve(multi.FromDual(g), multi.DualPlatform(1, 1, 10, 10), mip.Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal || !approx(res.Makespan, 4) {
		t.Fatalf("res = %+v", res)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestILPMatchesExactSearchOnTinyInstances(t *testing.T) {
	// Cross-validate the two "optimal" engines on instances where the
	// eager-list space provably contains an optimal schedule (single
	// chains and a two-child fork with ample memory).
	cases := []*dag.Graph{
		twoChain(2, 3, 4, 1, 1, 2),
		twoChain(3, 1, 1, 3, 2, 1),
	}
	for i, g := range cases {
		in, p := multi.FromDual(g), multi.DualPlatform(1, 1, 10, 10)
		ires, err := Solve(in, p, mip.Options{MaxNodes: 50000})
		if err != nil {
			t.Fatal(err)
		}
		eres, err := exact.Solve(tctx, in, p, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ires.Status != mip.Optimal || eres.Status != exact.Optimal {
			t.Fatalf("case %d: statuses %v / %v", i, ires.Status, eres.Status)
		}
		if !approx(ires.Makespan, eres.Makespan) {
			t.Fatalf("case %d: ILP %g vs exact %g", i, ires.Makespan, eres.Makespan)
		}
	}
}

func TestILPNeverWorseThanExactSearch(t *testing.T) {
	// The ILP optimises over all schedules; the list-space search over a
	// subset. On a memory-tight fork the ILP must be at least as good.
	g := dag.New()
	a := g.AddTask("a", 2, 2)
	b := g.AddTask("b", 3, 3)
	g.MustAddEdge(a, b, 2, 1)
	in, p := multi.FromDual(g), multi.DualPlatform(1, 1, 4, 4)
	ires, err := Solve(in, p, mip.Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	eres, err := exact.Solve(tctx, in, p, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ires.Status != mip.Optimal || eres.Status != exact.Optimal {
		t.Fatalf("statuses %v / %v", ires.Status, eres.Status)
	}
	if ires.Makespan > eres.Makespan+1e-6 {
		t.Fatalf("ILP %g worse than list-space %g", ires.Makespan, eres.Makespan)
	}
}

func TestPaperExampleILP(t *testing.T) {
	// The full 4-task example: optimal makespan 6 with ample memory
	// (see §3). ~245 variables. With an open budget the branch and bound
	// proves optimality at 6 in a few minutes (verified); the capped run
	// here checks the model end to end and the no-better-than-optimum
	// invariant while keeping the suite fast.
	if testing.Short() {
		t.Skip("full 4-task ILP solve is slow; run without -short")
	}
	g := dag.PaperExample()
	res, err := Solve(multi.FromDual(g), multi.DualPlatform(1, 1, 100, 100), mip.Options{
		MaxNodes: 400, Timeout: 45 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == mip.Optimal && !approx(res.Makespan, 6) {
		t.Fatalf("optimal makespan %g, want 6", res.Makespan)
	}
	if res.Schedule != nil {
		if err := res.Schedule.Validate(); err != nil {
			t.Fatal(err)
		}
		if res.Makespan < 6-1e-6 {
			t.Fatalf("ILP beat the true optimum: %g < 6", res.Makespan)
		}
	}
}

func TestDecodeRejectsOverlappingProcessors(t *testing.T) {
	g := twoChain(1, 1, 1, 1, 1, 1)
	md, err := Build(multi.FromDual(g), multi.DualPlatform(1, 0, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Hand-craft an inconsistent solution: both tasks at t=0 on blue with
	// w=1 each but only one blue processor.
	x := make([]float64, md.NumVariables())
	x[md.vW[0]], x[md.vW[1]] = 1, 1
	if _, err := md.Decode(x); err == nil {
		t.Fatal("overlapping decode accepted")
	}
}
