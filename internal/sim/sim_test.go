package sim

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/linalg"
	"repro/internal/multi"
)

func TestRunPaperExampleUnlimited(t *testing.T) {
	g := dag.PaperExample()
	p := multi.DualPlatform(1, 1, dag.Unlimited, dag.Unlimited)
	for _, pol := range []Policy{RankPolicy, EFTPolicy} {
		res, err := Run(tctx, multi.FromDual(g), p, Options{Policy: pol})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Makespan() <= 0 || res.Makespan() > 12 {
			t.Fatalf("%v: makespan %g out of range", pol, res.Makespan())
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

func TestRunRespectsMemoryBounds(t *testing.T) {
	g := dag.PaperExample()
	for _, m := range []int64{5, 6, 8} {
		p := multi.DualPlatform(1, 1, m, m)
		res, err := Run(tctx, multi.FromDual(g), p, Options{Policy: RankPolicy})
		if err != nil {
			continue // online admission can be stricter than static
		}
		pk := res.Schedule.MemoryPeaks()
		if blue, red := pk[0], pk[1]; blue > m || red > m {
			t.Fatalf("M=%d: peaks (%d,%d)", m, blue, red)
		}
	}
}

func TestRunStuckOnTinyMemory(t *testing.T) {
	g := dag.PaperExample()
	p := multi.DualPlatform(1, 1, 2, 2)
	_, err := Run(tctx, multi.FromDual(g), p, Options{})
	if !errors.Is(err, ErrStuck) {
		t.Fatalf("err = %v, want ErrStuck", err)
	}
}

func TestRunChainSerialises(t *testing.T) {
	g := dag.Chain(5, 2, 2, 1, 1)
	p := multi.DualPlatform(1, 0, 10, 0)
	res, err := Run(tctx, multi.FromDual(g), p, Options{Policy: EFTPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan() != 10 {
		t.Fatalf("makespan = %g, want 10", res.Makespan())
	}
}

func TestTransfersStartEagerly(t *testing.T) {
	// Online semantics: cross transfers start at dispatch time, not ALAP.
	g := dag.New()
	a := g.AddTask("a", 1, 5)
	b := g.AddTask("b", 9, 1) // wants red
	g.MustAddEdge(a, b, 1, 3)
	p := multi.DualPlatform(1, 1, 10, 10)
	res, err := Run(tctx, multi.FromDual(g), p, Options{Policy: EFTPolicy})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := g.EdgeBetween(a, b)
	if !res.Schedule.IsCross(e.ID) {
		t.Skip("dispatcher kept both on one memory")
	}
	tau := res.Schedule.CommStart[e.ID]
	finishA := res.Schedule.Finish(a)
	if tau != finishA {
		t.Fatalf("transfer starts at %g, dispatch was possible at %g", tau, finishA)
	}
}

func TestPolicyDifferencesShowUp(t *testing.T) {
	// On a wide heterogeneous graph the two policies generally disagree
	// somewhere; at minimum both must emit valid schedules.
	g := randomDAG(5, 40)
	p := multi.DualPlatform(2, 2, dag.Unlimited, dag.Unlimited)
	r1, err := Run(tctx, multi.FromDual(g), p, Options{Policy: RankPolicy})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(tctx, multi.FromDual(g), p, Options{Policy: EFTPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan() <= 0 || r2.Makespan() <= 0 {
		t.Fatal("bad makespans")
	}
}

func TestPropertyOnlineSchedulesValidate(t *testing.T) {
	f := func(seed int64, rawBound uint16) bool {
		g := randomDAG(seed, 20)
		bound := int64(rawBound%300) + 20
		p := multi.DualPlatform(2, 2, bound, bound)
		for _, pol := range []Policy{RankPolicy, EFTPolicy} {
			res, err := Run(tctx, multi.FromDual(g), p, Options{Policy: pol})
			if err != nil {
				if !errors.Is(err, ErrStuck) {
					return false
				}
				continue
			}
			if res.Schedule.Validate() != nil {
				return false
			}
			pk := res.Schedule.MemoryPeaks()
			if blue, red := pk[0], pk[1]; blue > bound || red > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineVsStaticOnLU(t *testing.T) {
	// The online dispatcher must complete the LU graph with generous
	// memory and land within a reasonable factor of static MemMinMin
	// (eager transfers and no lookahead cost something).
	g, err := linalg.LU(linalg.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	p := multi.DualPlatform(12, 3, 200, 200)
	static, err := multi.MemMinMin(tctx, multi.FromDual(g), p, multi.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	online, err := Run(tctx, multi.FromDual(g), p, Options{Policy: EFTPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if online.Makespan() < static.Makespan()/3 || online.Makespan() > static.Makespan()*3 {
		t.Fatalf("online %g vs static %g: outside sanity band", online.Makespan(), static.Makespan())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := dag.New()
	res, err := Run(tctx, multi.FromDual(g), multi.DualPlatform(1, 1, 1, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan() != 0 {
		t.Fatal("empty graph should have zero makespan")
	}
}

func TestResultMakespanNilSafety(t *testing.T) {
	var r *Result
	if !(r.Makespan() > 1e300) {
		t.Fatal("nil result should report +inf makespan")
	}
}

func randomDAG(seed int64, n int) *dag.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := dag.New()
	for i := 0; i < n; i++ {
		g.AddTask("", float64(rng.Intn(20)+1), float64(rng.Intn(20)+1))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && j < i+7; j++ {
			if rng.Float64() < 0.3 {
				g.MustAddEdge(dag.TaskID(i), dag.TaskID(j), int64(rng.Intn(8)+1), float64(rng.Intn(8)+1))
			}
		}
	}
	return g
}
