package core

import (
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/platform"
)

func TestMemHEFTInsertionProducesValidSchedules(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 20)
		for _, bound := range []int64{40, platform.Unlimited} {
			p := platform.New(2, 2, bound, bound)
			s, err := MemHEFTInsertion(tctx, g, p, Options{Seed: seed})
			if err != nil {
				continue
			}
			if s.Validate() != nil {
				return false
			}
			blue, red := peaks(s)
			if blue > bound || red > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertionFillsGap(t *testing.T) {
	// One blue processor. Long task a [0,10); b depends on a remote-ish
	// setup... simpler: schedule order by rank puts a first ([0,10)),
	// then c (independent, duration 2): append policy starts c at 10;
	// insertion cannot do better here since no gap exists. Build an
	// actual gap: two tasks x->y with a communication window, plus an
	// independent short task z that fits in the idle window on red.
	g := dag.New()
	x := g.AddTask("x", 1, 1)
	y := g.AddTask("y", 8, 8)
	g.MustAddEdge(x, y, 1, 6) // y waits for the cross transfer
	z := g.AddTask("z", 2, 2)

	p := platform.New(1, 1, 100, 100)
	// Force x on blue, y on red by times? Keep times equal; with seed
	// tie-breaks the placements vary, so instead check the global
	// property: insertion's makespan <= append's makespan on this
	// instance for the same seed.
	for seed := int64(0); seed < 10; seed++ {
		a, err := MemHEFT(tctx, g, p, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := MemHEFTInsertion(tctx, g, p, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if b.Makespan() > a.Makespan()+1e-9 {
			// Insertion is not universally dominant in theory, but
			// on this 3-task instance with a single decision point
			// it must not lose.
			t.Fatalf("seed %d: insertion %g > append %g", seed, b.Makespan(), a.Makespan())
		}
	}
	_ = z
}

func TestInsertionZeroDurationTasks(t *testing.T) {
	g := dag.New()
	a := g.AddTask("a", 2, 2)
	b := g.AddTask("b", 0, 0)
	c := g.AddTask("c", 2, 2)
	g.MustAddEdge(a, b, 1, 1)
	g.MustAddEdge(b, c, 1, 1)
	p := platform.New(1, 0, 10, 0)
	s, err := MemHEFTInsertion(tctx, g, p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 4 {
		t.Fatalf("makespan = %g, want 4", s.Makespan())
	}
}
