package exact

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/multi"
)

func TestLowerBoundPaperExample(t *testing.T) {
	g := dag.PaperExample()
	// CP (min times) = 5; total min work 7 over 2 procs = 3.5.
	lb, err := LowerBound(inst(g), multi.DualPlatform(1, 1, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if lb != 5 {
		t.Fatalf("LowerBound = %g, want 5", lb)
	}
	// On a single processor the work bound dominates: 7.
	lb, _ = LowerBound(inst(g), multi.DualPlatform(0, 1, 10, 10))
	if lb != 7 {
		t.Fatalf("LowerBound(1 proc) = %g, want 7", lb)
	}
}

func TestOptimalPaperExampleUnlimited(t *testing.T) {
	g := dag.PaperExample()
	p := multi.DualPlatform(1, 1, dag.Unlimited, dag.Unlimited)
	res, err := Solve(tctx, inst(g), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Worked out in the paper (§3.3 discussion): 6 is optimal.
	if res.Makespan != 6 {
		t.Fatalf("makespan = %g, want 6", res.Makespan)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalPaperExampleMemoryFour(t *testing.T) {
	// §3.3: with M(blue)=M(red)=4 the optimum trades one time unit for
	// memory: makespan 7.
	g := dag.PaperExample()
	p := multi.DualPlatform(1, 1, 4, 4)
	res, err := Solve(tctx, inst(g), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || res.Makespan != 7 {
		t.Fatalf("status %v makespan %g, want optimal 7", res.Status, res.Makespan)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	pk := res.Schedule.MemoryPeaks()
	if blue, red := pk[0], pk[1]; blue > 4 || red > 4 {
		t.Fatalf("peaks (%d,%d) exceed 4", blue, red)
	}
}

func TestInfeasibleWhenMemoryTooSmall(t *testing.T) {
	g := dag.PaperExample()
	p := multi.DualPlatform(1, 1, 2, 2) // T3 alone needs 4
	res, err := Solve(tctx, inst(g), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
	ok, st, err := CheckFeasible(tctx, inst(g), p, Options{})
	if err != nil || ok || st != Infeasible {
		t.Fatalf("CheckFeasible = %v/%v/%v", ok, st, err)
	}
}

func TestFeasibilityOnlyStopsEarly(t *testing.T) {
	g := dag.PaperExample()
	p := multi.DualPlatform(1, 1, 10, 10)
	res, err := Solve(tctx, inst(g), p, Options{FeasibilityOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Feasible || res.Schedule == nil {
		t.Fatalf("res = %+v", res)
	}
	full, _ := Solve(tctx, inst(g), p, Options{})
	if res.Nodes > full.Nodes {
		t.Fatalf("feasibility search (%d nodes) slower than full search (%d)", res.Nodes, full.Nodes)
	}
}

func TestIncumbentPrunes(t *testing.T) {
	g := dag.PaperExample()
	p := multi.DualPlatform(1, 1, 10, 10)
	h, err := multi.MemHEFT(tctx, inst(g), p, multi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(tctx, inst(g), p, Options{Incumbent: h})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || res.Makespan > h.Makespan() {
		t.Fatalf("res = %+v vs heuristic %g", res, h.Makespan())
	}
	plain, _ := Solve(tctx, inst(g), p, Options{})
	if res.Nodes > plain.Nodes {
		t.Fatalf("seeded search explored more nodes (%d) than unseeded (%d)", res.Nodes, plain.Nodes)
	}
}

func TestNodeBudgetReportsUnknownOrFeasible(t *testing.T) {
	g := dag.Chain(6, 2, 3, 1, 1)
	p := multi.DualPlatform(1, 1, 10, 10)
	res, err := Solve(tctx, inst(g), p, Options{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Optimal || res.Status == Infeasible {
		t.Fatalf("2-node budget cannot conclude, got %v", res.Status)
	}
}

func TestSolveMatchesEnumerateMinimum(t *testing.T) {
	g := dag.PaperExample()
	for _, m := range []int64{4, 5, 20} {
		p := multi.DualPlatform(1, 1, m, m)
		all, err := Enumerate(inst(g), p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(tctx, inst(g), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(all) == 0 {
			if res.Status != Infeasible {
				t.Fatalf("M=%d: enumerate empty but solve says %v", m, res.Status)
			}
			continue
		}
		min := math.Inf(1)
		for _, v := range all {
			if v < min {
				min = v
			}
		}
		if res.Makespan != min {
			t.Fatalf("M=%d: solve %g, enumeration min %g", m, res.Makespan, min)
		}
	}
}

func TestEnumerateGuard(t *testing.T) {
	g := dag.Chain(9, 1, 1, 1, 1)
	if _, err := Enumerate(inst(g), multi.DualPlatform(1, 1, 10, 10)); err == nil {
		t.Fatal("Enumerate accepted a 9-task graph")
	}
}

func TestOptimalNeverWorseThanHeuristics(t *testing.T) {
	f := func(seed int64) bool {
		g := smallRandom(seed)
		p := multi.DualPlatform(1, 1, 25, 25)
		res, err := Solve(tctx, inst(g), p, Options{MaxNodes: 300000})
		if err != nil || res.Status == Unknown || res.Status == Feasible {
			return true // budget blowups do not falsify the property
		}
		for _, f := range []multi.Func{multi.MemHEFT, multi.MemMinMin} {
			hs, err := f(tctx, inst(g), p, multi.Options{Seed: seed})
			if err != nil {
				continue
			}
			if res.Status == Infeasible {
				return false // heuristic succeeded where exact search "proved" infeasible
			}
			if res.Makespan > hs.Makespan()+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalSchedulesValidate(t *testing.T) {
	f := func(seed int64) bool {
		g := smallRandom(seed)
		p := multi.DualPlatform(1, 1, 30, 30)
		res, err := Solve(tctx, inst(g), p, Options{MaxNodes: 300000})
		if err != nil {
			return false
		}
		if res.Schedule == nil {
			return true
		}
		return res.Schedule.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundHoldsForOptimal(t *testing.T) {
	f := func(seed int64) bool {
		g := smallRandom(seed)
		p := multi.DualPlatform(1, 1, dag.Unlimited, dag.Unlimited)
		lb, err := LowerBound(inst(g), p)
		if err != nil {
			return false
		}
		res, err := Solve(tctx, inst(g), p, Options{MaxNodes: 300000})
		if err != nil || res.Schedule == nil {
			return true
		}
		return res.Makespan >= lb-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// smallRandom builds a 6-task random DAG (small enough for exact search).
func smallRandom(seed int64) *dag.Graph {
	g := dag.New()
	rng := newRand(seed)
	for i := 0; i < 6; i++ {
		g.AddTask("", float64(rng.next()%9+1), float64(rng.next()%9+1))
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if rng.next()%3 == 0 {
				g.MustAddEdge(dag.TaskID(i), dag.TaskID(j), int64(rng.next()%5+1), float64(rng.next()%5+1))
			}
		}
	}
	return g
}

// newRand is a tiny deterministic PRNG (splitmix-ish) to avoid pulling
// math/rand into many helpers.
type miniRand struct{ s uint64 }

func newRand(seed int64) *miniRand { return &miniRand{s: uint64(seed)*2654435769 + 1} }

func (r *miniRand) next() int {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return int(r.s % (1 << 30))
}

func TestTimeoutStopsSearch(t *testing.T) {
	// A graph big enough that full exploration cannot finish in a
	// nanosecond; the search must stop via the deadline check and report
	// a budgeted status.
	g := smallRandom(3)
	p := multi.DualPlatform(1, 1, 30, 30)
	res, err := Solve(tctx, inst(g), p, Options{Timeout: 1, MaxNodes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Optimal || res.Status == Infeasible {
		// The deadline is checked every 1024 nodes, so a tiny graph
		// could still finish; smallRandom(3) has 6 tasks and a large
		// search tree, making completion within ~1024 nodes the only
		// escape. Accept it but require the node count to be small.
		if res.Nodes > 2048 {
			t.Fatalf("search ran %d nodes past a 1ns deadline", res.Nodes)
		}
	}
}

func TestLowerBoundOnCyclicGraphFails(t *testing.T) {
	g := dag.New()
	a := g.AddTask("a", 1, 1)
	b := g.AddTask("b", 1, 1)
	g.MustAddEdge(a, b, 1, 1)
	g.MustAddEdge(b, a, 1, 1)
	if _, err := LowerBound(inst(g), multi.DualPlatform(1, 1, 1, 1)); err == nil {
		t.Fatal("cyclic graph accepted")
	}
	if _, err := Solve(tctx, inst(g), multi.DualPlatform(1, 1, 1, 1), Options{}); err == nil {
		t.Fatal("cyclic graph accepted by Solve")
	}
}

// TestLowerBoundMatchesDualReference: on the 2-pool instance of a graph,
// LowerBound equals the graph's own critical path and aggregate work over
// min(WBlue, WRed), bit for bit.
func TestLowerBoundMatchesDualReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := smallRandom(seed)
		p := multi.DualPlatform(int(seed%3)+1, 2, 10, 10)
		got, err := LowerBound(inst(g), p)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := g.CriticalPathLength()
		if err != nil {
			t.Fatal(err)
		}
		if want := math.Max(cp, g.TotalMinWork()/float64(p.TotalProcs())); got != want {
			t.Fatalf("seed %d: LowerBound %v, dual reference %v", seed, got, want)
		}
	}
}
