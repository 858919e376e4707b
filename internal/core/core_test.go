package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	memsched "repro"
	"repro/internal/dag"
	"repro/internal/multi"
)

func mustSchedule(t *testing.T, f Func, g *dag.Graph, p multi.Platform, seed int64) *multi.Schedule {
	t.Helper()
	s, err := f(tctx, g, p, Options{Seed: seed})
	if err != nil {
		t.Fatalf("scheduling failed: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	return s
}

func TestPriorityListPaperExample(t *testing.T) {
	g := dag.PaperExample()
	list, err := PriorityList(nil, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Ranks: T1=8.5, T3=6, T2=3.5, T4=1 (no ties).
	want := []dag.TaskID{0, 2, 1, 3}
	for i, id := range list {
		if id != want[i] {
			t.Fatalf("priority list = %v, want %v", list, want)
		}
	}
}

func TestPriorityListTieBreakDependsOnSeed(t *testing.T) {
	// Ten identical independent tasks: order is purely the tie-break.
	g := dag.New()
	for i := 0; i < 10; i++ {
		g.AddTask("", 1, 1)
	}
	a, _ := PriorityList(nil, g, 1)
	b, _ := PriorityList(nil, g, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different lists")
		}
	}
	c, _ := PriorityList(nil, g, 99)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical tie-breaks (possible but wildly unlikely)")
	}
}

func TestHEFTOnPaperExample(t *testing.T) {
	g := dag.PaperExample()
	p := multi.DualPlatform(1, 1, 1, 1) // bounds ignored by HEFT
	s := mustSchedule(t, HEFT, g, p, 1)
	// HEFT trace: T1 -> red (EFT 1 vs 3). T3 -> red (EFT 1+3=4 vs
	// blue 1+1+6=8). T2 -> blue (EFT 2+2=4 vs red 4+2=6). T4: blue
	// would start after comm(3,4): max(4, 4+1)=5, EFT 6; red after
	// comm(2,4): max(4+1, 4)=5, EFT 6. Tie -> blue. Makespan 6.
	if ms := s.Makespan(); ms != 6 {
		t.Fatalf("HEFT makespan = %g, want 6", ms)
	}
}

func TestMinMinOnPaperExample(t *testing.T) {
	g := dag.PaperExample()
	p := multi.DualPlatform(1, 1, 1, 1)
	s := mustSchedule(t, MinMin, g, p, 1)
	if ms := s.Makespan(); ms > 7 {
		t.Fatalf("MinMin makespan = %g, want <= 7", ms)
	}
}

func TestMemHEFTRespectsMemoryBounds(t *testing.T) {
	g := dag.PaperExample()
	for _, m := range []int64{4, 5, 6, 10} {
		p := multi.DualPlatform(1, 1, m, m)
		s, err := MemHEFT(tctx, g, p, Options{})
		if err != nil {
			continue // infeasible for the heuristic: acceptable here
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("M=%d: invalid schedule: %v", m, err)
		}
		blue, red := peaks(s)
		if blue > m || red > m {
			t.Fatalf("M=%d: peaks (%d,%d) exceed bound", m, blue, red)
		}
	}
}

func TestMemMinMinRespectsMemoryBounds(t *testing.T) {
	g := dag.PaperExample()
	for _, m := range []int64{4, 5, 6, 10} {
		p := multi.DualPlatform(1, 1, m, m)
		s, err := MemMinMin(tctx, g, p, Options{})
		if err != nil {
			continue
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("M=%d: invalid schedule: %v", m, err)
		}
		blue, red := peaks(s)
		if blue > m || red > m {
			t.Fatalf("M=%d: peaks (%d,%d) exceed bound", m, blue, red)
		}
	}
}

func TestMemHEFTEqualsHEFTWithPlentifulMemory(t *testing.T) {
	// §6.2.1: if both bounds exceed HEFT's peaks, MemHEFT takes exactly
	// the same decisions as HEFT.
	g := dag.PaperExample()
	p := multi.DualPlatform(1, 1, 0, 0)
	h := mustSchedule(t, HEFT, g, p, 7)
	hb, hr := peaks(h)
	mh := mustSchedule(t, MemHEFT, g, multi.DualPlatform(1, 1, hb, hr), 7)
	for i := 0; i < g.NumTasks(); i++ {
		if h.Tasks[i] != mh.Tasks[i] {
			t.Fatalf("task %d placed differently: %+v vs %+v", i, h.Tasks[i], mh.Tasks[i])
		}
	}
}

func TestMemHEFTFailsWhenMemoryTooSmall(t *testing.T) {
	g := dag.PaperExample()
	// Even executing a single task needs its files in memory; T3 needs 4.
	p := multi.DualPlatform(1, 1, 2, 2)
	_, err := MemHEFT(tctx, g, p, Options{})
	if !errors.Is(err, ErrMemoryBound) {
		t.Fatalf("err = %v, want ErrMemoryBound", err)
	}
	_, err = MemMinMin(tctx, g, p, Options{})
	if !errors.Is(err, ErrMemoryBound) {
		t.Fatalf("err = %v, want ErrMemoryBound", err)
	}
}

func TestHeuristicsOnChainSingleMemory(t *testing.T) {
	// A chain with equal times on a 1+0 platform: the makespan is just
	// the sum of the works, and memory needs are one file in flight.
	g := dag.Chain(6, 2, 2, 3, 1)
	p := multi.DualPlatform(1, 0, 6, 0)
	for name, f := range Algorithms {
		if name == "heft" || name == "minmin" {
			continue // oblivious ones ignore bounds anyway
		}
		s := mustSchedule(t, f, g, p, 1)
		if ms := s.Makespan(); ms != 12 {
			t.Fatalf("%s: makespan = %g, want 12", name, ms)
		}
	}
}

func TestChainNeedsTwoFilesDuringInnerTasks(t *testing.T) {
	// Inner chain tasks hold input+output (2 files of size 3): bound 5
	// must fail, bound 6 must succeed.
	g := dag.Chain(4, 1, 1, 3, 1)
	if _, err := MemHEFT(tctx, g, multi.DualPlatform(1, 0, 5, 0), Options{}); !errors.Is(err, ErrMemoryBound) {
		t.Fatalf("bound 5 accepted: %v", err)
	}
	s, err := MemHEFT(tctx, g, multi.DualPlatform(1, 0, 6, 0), Options{})
	if err != nil {
		t.Fatalf("bound 6 rejected: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestForkJoinMemoryForcesSerialisation(t *testing.T) {
	// width 6, unit times, files of size 2. The fork holds 12 units of
	// output; executing it needs 12. Give exactly 12 so the middle tasks
	// can only run once predecessors' files are consumed.
	g := dag.ForkJoin(6, 1, 1, 2, 1)
	p := multi.DualPlatform(2, 2, 12, 12)
	for _, f := range []Func{MemHEFT, MemMinMin} {
		s, err := f(tctx, g, p, Options{Seed: 3})
		if err != nil {
			t.Fatalf("forkjoin infeasible: %v", err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemoryAwareSucceedsAtTotalFilesBound(t *testing.T) {
	// With M = sum of all file sizes no memory check can ever bind (the
	// files of the task under evaluation are not yet accounted, so
	// used + need <= TotalFiles always), hence the memory-aware runs
	// must succeed and make exactly the oblivious decisions.
	g := randomDAG(42, 25)
	p := multi.DualPlatform(2, 2, 0, 0)
	h := mustSchedule(t, HEFT, g, p, 5)
	total := g.TotalFiles()
	mh := mustSchedule(t, MemHEFT, g, p.WithUniformBounds(total), 5)
	for i := 0; i < g.NumTasks(); i++ {
		if h.Tasks[i] != mh.Tasks[i] {
			t.Fatalf("task %d differs at TotalFiles bound", i)
		}
	}
}

func TestZeroCostBroadcastTasks(t *testing.T) {
	// A source broadcasting through a chain of fictitious tasks, as the
	// linear-algebra DAGs do.
	g := dag.New()
	src := g.AddTask("src", 2, 1)
	b1 := g.AddTask("b1", 0, 0)
	b2 := g.AddTask("b2", 0, 0)
	c1 := g.AddTask("c1", 3, 1)
	c2 := g.AddTask("c2", 3, 1)
	g.MustAddEdge(src, b1, 1, 1)
	g.MustAddEdge(b1, b2, 1, 1)
	g.MustAddEdge(b1, c1, 1, 1)
	g.MustAddEdge(b2, c2, 1, 1)
	p := multi.DualPlatform(1, 1, 10, 10)
	for name, f := range Algorithms {
		s, err := f(tctx, g, p, Options{Seed: 2})
		if err != nil {
			t.Fatalf("%s failed: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
	}
}

func TestByName(t *testing.T) {
	sess, err := memsched.NewSession(dag.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	p := memsched.NewDualPlatform(1, 1, 10, 10)
	for _, name := range []string{"heft", "minmin", "memheft", "memminmin"} {
		if _, err := sess.Schedule(tctx, p, memsched.WithScheduler(name)); err != nil {
			t.Fatalf("WithScheduler(%s): %v", name, err)
		}
	}
	if _, err := sess.Schedule(tctx, p, memsched.WithScheduler("bogus")); err == nil {
		t.Fatal("bogus name accepted")
	}
}

func TestSingleTaskGraph(t *testing.T) {
	g := dag.New()
	g.AddTask("only", 5, 2)
	p := multi.DualPlatform(1, 1, 0, 0) // no files: zero memory suffices
	s := mustSchedule(t, MemHEFT, g, p, 1)
	if s.Makespan() != 2 { // red is faster
		t.Fatalf("makespan = %g, want 2", s.Makespan())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := dag.New()
	p := multi.DualPlatform(1, 1, 1, 1)
	s, err := MemHEFT(tctx, g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 0 {
		t.Fatal("empty graph has nonzero makespan")
	}
	if _, err := MemMinMin(tctx, g, p, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestRedOnlyPlatform(t *testing.T) {
	g := dag.PaperExample()
	p := multi.DualPlatform(0, 1, 0, 20)
	s := mustSchedule(t, MemMinMin, g, p, 1)
	// Serial on red: 1+2+3+1 = 7.
	if ms := s.Makespan(); ms != 7 {
		t.Fatalf("makespan = %g, want 7", ms)
	}
	for i := range s.Tasks {
		if s.PoolOf(dag.TaskID(i)) != red {
			t.Fatal("task not on red on red-only platform")
		}
	}
}

func TestInvalidPlatformRejected(t *testing.T) {
	g := dag.PaperExample()
	if _, err := MemHEFT(tctx, g, multi.DualPlatform(0, 0, 1, 1), Options{}); err == nil {
		t.Fatal("no-processor platform accepted")
	}
	if _, err := MemMinMin(tctx, g, multi.DualPlatform(0, 0, 1, 1), Options{}); err == nil {
		t.Fatal("no-processor platform accepted")
	}
}

// randomDAG builds a seeded random layered-ish DAG for property tests.
func randomDAG(seed int64, n int) *dag.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := dag.New()
	for i := 0; i < n; i++ {
		g.AddTask("", float64(rng.Intn(20)+1), float64(rng.Intn(20)+1))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && j < i+8; j++ {
			if rng.Float64() < 0.35 {
				g.MustAddEdge(dag.TaskID(i), dag.TaskID(j), int64(rng.Intn(10)+1), float64(rng.Intn(10)+1))
			}
		}
	}
	return g
}

func TestPropertyHeuristicsProduceValidSchedules(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 20)
		p := multi.DualPlatform(2, 2, dag.Unlimited, dag.Unlimited)
		for _, fn := range []Func{MemHEFT, MemMinMin} {
			s, err := fn(tctx, g, p, Options{Seed: seed})
			if err != nil {
				return false
			}
			if err := s.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBoundedRunsRespectBounds(t *testing.T) {
	f := func(seed int64, rawBound uint16) bool {
		g := randomDAG(seed, 18)
		bound := int64(rawBound%200) + 1
		p := multi.DualPlatform(2, 2, bound, bound)
		for _, fn := range []Func{MemHEFT, MemMinMin} {
			s, err := fn(tctx, g, p, Options{Seed: seed})
			if err != nil {
				continue // infeasible is fine; invalid is not
			}
			if err := s.Validate(); err != nil {
				return false
			}
			blue, red := peaks(s)
			if blue > bound || red > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMakespanAtLeastCriticalPath(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 16)
		cp, err := g.CriticalPathLength()
		if err != nil {
			return false
		}
		p := multi.DualPlatform(2, 2, dag.Unlimited, dag.Unlimited)
		for _, fn := range []Func{HEFT, MinMin} {
			s, err := fn(tctx, g, p, Options{Seed: seed})
			if err != nil {
				return false
			}
			if s.Makespan() < cp-multi.Eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTotalFilesBoundMatchesOblivious(t *testing.T) {
	// M = TotalFiles can never bind, so the memory-aware heuristics must
	// succeed and reproduce the oblivious placements exactly. (Bounds at
	// the *measured* HEFT peaks are not guaranteed to suffice: the
	// heuristics' internal accounting is conservative — uniform
	// communication windows and an "everywhere after t" fit rule — so
	// it can exceed the true model usage of the emitted schedule.)
	f := func(seed int64) bool {
		g := randomDAG(seed, 15)
		total := g.TotalFiles()
		p := multi.DualPlatform(1, 1, total, total)
		pairs := [][2]Func{{HEFT, MemHEFT}, {MinMin, MemMinMin}}
		for _, pair := range pairs {
			a, errA := pair[0](tctx, g, p, Options{Seed: seed})
			b, errB := pair[1](tctx, g, p, Options{Seed: seed})
			if errA != nil || errB != nil {
				return false
			}
			for i := 0; i < g.NumTasks(); i++ {
				if a.Tasks[i] != b.Tasks[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConservativeCommWindowNeverUnderestimates(t *testing.T) {
	// Two cross parents with different comm times: the heuristic reserves
	// the conservative max window; the emitted per-edge ALAP comms must
	// still validate and respect bounds.
	g := dag.New()
	a := g.AddTask("a", 1, 10)
	b := g.AddTask("b", 1, 10)
	c := g.AddTask("c", 10, 1) // prefers red; parents prefer blue
	g.MustAddEdge(a, c, 3, 5)
	g.MustAddEdge(b, c, 4, 1)
	p := multi.DualPlatform(2, 1, 20, 20)
	s := mustSchedule(t, MemMinMin, g, p, 1)
	if s.PoolOf(c) != red {
		t.Skip("heuristic placed c on blue; conservative window untested here")
	}
	ea, _ := g.EdgeBetween(a, c)
	eb, _ := g.EdgeBetween(b, c)
	startC := s.Tasks[c].Start
	if got := s.CommStart[ea.ID]; math.Abs(got-(startC-5)) > 1e-9 {
		t.Fatalf("comm a->c starts at %g, want %g", got, startC-5)
	}
	if got := s.CommStart[eb.ID]; math.Abs(got-(startC-1)) > 1e-9 {
		t.Fatalf("comm b->c starts at %g, want %g", got, startC-1)
	}
}
