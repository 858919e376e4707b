package core

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/multi"
)

// TestMemHEFTSkipsBlockedHighPriorityTask verifies the index-scan of
// Algorithm 1: when the highest-rank ready task does not fit in memory,
// MemHEFT schedules a lower-rank task that does, instead of failing.
func TestMemHEFTSkipsBlockedHighPriorityTask(t *testing.T) {
	g := dag.New()
	// big: huge rank (long chain below it), needs 8 units of memory.
	big := g.AddTask("big", 10, 10)
	bigChild := g.AddTask("bigchild", 10, 10)
	g.MustAddEdge(big, bigChild, 8, 1)
	// small: tiny rank, needs 2 units.
	small := g.AddTask("small", 1, 1)
	smallChild := g.AddTask("smallchild", 1, 1)
	g.MustAddEdge(small, smallChild, 2, 1)

	ranks, err := g.UpwardRanks(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ranks[big] <= ranks[small] {
		t.Fatalf("fixture broken: rank(big)=%g <= rank(small)=%g", ranks[big], ranks[small])
	}

	// Memory 4: big (needs 8) never fits, small (needs 2) does.
	p := multi.DualPlatform(1, 1, 4, 4)
	s, err := MemHEFT(tctx, g, p, Options{Seed: 1})
	if err == nil {
		t.Fatal("expected failure: big can never fit")
	}
	// The partial schedule must contain small and smallChild.
	if s.Tasks[small].Proc < 0 || s.Tasks[smallChild].Proc < 0 {
		t.Fatal("MemHEFT did not schedule the fitting low-priority tasks before failing")
	}
}

// TestMemHEFTListScanOrder pins the restart-from-head behaviour: after the
// low-priority task releases memory, the high-priority one is picked again.
func TestMemHEFTListScanOrder(t *testing.T) {
	g := dag.New()
	// a and b are independent; a has higher rank but needs more memory
	// than is initially free; b consumes little and its completion frees
	// nothing — but scheduling order must still be b first, then a
	// becomes feasible only if memory allows. Construct so that both fit
	// sequentially within bound 6: a needs 5 (outputs), b needs 1.
	a := g.AddTask("a", 4, 4)
	aChild := g.AddTask("achild", 1, 1)
	g.MustAddEdge(a, aChild, 5, 1)
	b := g.AddTask("b", 1, 1)
	bChild := g.AddTask("bchild", 1, 1)
	g.MustAddEdge(b, bChild, 1, 1)

	p := multi.DualPlatform(2, 2, 6, 6)
	s, err := MemHEFT(tctx, g, p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// All four scheduled; a (rank max) goes first at t=0.
	if s.Tasks[a].Start != 0 {
		t.Fatalf("a starts at %g", s.Tasks[a].Start)
	}
}

func TestSameSeedIsDeterministic(t *testing.T) {
	g := randomDAG(99, 24)
	p := multi.DualPlatform(2, 2, 120, 120)
	for name, fn := range Algorithms {
		s1, err1 := fn(tctx, g, p, Options{Seed: 5})
		s2, err2 := fn(tctx, g, p, Options{Seed: 5})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: nondeterministic feasibility", name)
		}
		if err1 != nil {
			continue
		}
		for i := range s1.Tasks {
			if s1.Tasks[i] != s2.Tasks[i] {
				t.Fatalf("%s: nondeterministic placement of task %d", name, i)
			}
		}
	}
}

func TestCommunicationsAreALAP(t *testing.T) {
	// Every cross edge's communication must end exactly at the consumer's
	// start (as-late-as-possible placement).
	g := randomDAG(7, 20)
	p := multi.DualPlatform(1, 1, dag.Unlimited, dag.Unlimited)
	s, err := MemHEFT(tctx, g, p, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < g.NumEdges(); e++ {
		if !s.IsCross(dag.EdgeID(e)) {
			continue
		}
		edge := g.Edge(dag.EdgeID(e))
		end := s.CommStart[e] + edge.Comm
		if math.Abs(end-s.Tasks[edge.To].Start) > 1e-9 {
			t.Fatalf("comm %d->%d ends at %g, consumer starts at %g",
				edge.From, edge.To, end, s.Tasks[edge.To].Start)
		}
	}
}

func TestPartialCloneIsDeepEnough(t *testing.T) {
	g := dag.PaperExample()
	p := multi.DualPlatform(1, 1, 10, 10)
	st := NewPartial(g, p)
	c1 := st.Evaluate(0, red)
	if !c1.Feasible() {
		t.Fatal("T1 should fit")
	}
	clone := st.Clone()
	clone.Commit(c1)
	if st.Assigned(0) {
		t.Fatal("commit on clone mutated original assignment")
	}
	if st.Schedule().Tasks[0].Proc != -1 {
		t.Fatal("commit on clone mutated original schedule")
	}
	// Original can still commit independently.
	st.Commit(st.Evaluate(0, blue))
	if st.MakespanSoFar() != 3 { // blue time of T1
		t.Fatalf("original makespan %g", st.MakespanSoFar())
	}
	if clone.MakespanSoFar() != 1 { // red time of T1
		t.Fatalf("clone makespan %g", clone.MakespanSoFar())
	}
}

func TestPartialReadyTasksEvolution(t *testing.T) {
	g := dag.PaperExample()
	st := NewPartial(g, multi.DualPlatform(1, 1, 100, 100))
	r := st.ReadyTasks()
	if len(r) != 1 || r[0] != 0 {
		t.Fatalf("initial ready = %v", r)
	}
	st.Commit(st.Evaluate(0, red))
	r = st.ReadyTasks()
	if len(r) != 2 || r[0] != 1 || r[1] != 2 {
		t.Fatalf("ready after T1 = %v", r)
	}
	if st.Done() {
		t.Fatal("not done yet")
	}
}

// TestStressLinalgAllHeuristicsValidate runs every heuristic over a grid of
// factorisation sizes and memory bounds and validates every produced
// schedule.
func TestStressLinalgAllHeuristicsValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep")
	}
	for _, n := range []int{3, 5} {
		for _, build := range []string{"lu", "cholesky"} {
			g := buildLinalg(t, build, n)
			unb := multi.DualPlatform(3, 2, dag.Unlimited, dag.Unlimited)
			ref, err := HEFT(tctx, g, unb, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			blue, red := peaks(ref)
			peak := blue
			if red > peak {
				peak = red
			}
			for _, frac := range []int64{10, 7, 5, 3} {
				bound := peak * frac / 10
				p := multi.DualPlatform(3, 2, bound, bound)
				for name, fn := range Algorithms {
					s, err := fn(tctx, g, p, Options{Seed: 2})
					if err != nil {
						continue
					}
					if err := s.Validate(); err != nil {
						t.Fatalf("%s %s n=%d frac=%d: %v", build, name, n, frac, err)
					}
				}
			}
		}
	}
}

func buildLinalg(t *testing.T, kind string, n int) *dag.Graph {
	t.Helper()
	// A dense layered graph of the factorisations' shape, with
	// kernel-like weights; the real LU and Cholesky graphs come from
	// internal/linalg.
	g := dag.New()
	var prev []dag.TaskID
	for level := 0; level < n*2; level++ {
		var cur []dag.TaskID
		width := n - level%n
		if width < 1 {
			width = 1
		}
		for w := 0; w < width; w++ {
			id := g.AddTask("", float64(450+w*100), float64(90+w*10))
			for _, p := range prev {
				if (int(p)+w)%2 == 0 {
					g.MustAddEdge(p, id, 1, 50)
				}
			}
			cur = append(cur, id)
		}
		prev = cur
	}
	_ = kind
	return g
}
