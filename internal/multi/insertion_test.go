package multi

import (
	"fmt"
	"testing"

	"repro/internal/dag"
	"repro/internal/daggen"
)

func TestInsertionStateGapSearch(t *testing.T) {
	is := newInsertionState(1)
	is.insert(0, 2, 3) // busy [2,5)
	is.insert(0, 8, 2) // busy [8,10)
	cases := []struct {
		lb, w, want float64
	}{
		{0, 2, 0},  // fits before the first interval
		{0, 3, 5},  // too wide for [0,2), next gap is [5,8)
		{0, 4, 10}, // only after everything
		{3, 1, 5},  // lb inside a busy interval
		{6, 2, 6},  // fits inside [5,8)
		{6, 3, 10}, // too wide for the remainder of [5,8)
		{12, 1, 12},
	}
	for _, c := range cases {
		if got := is.earliestFitOn(0, c.lb, c.w); got != c.want {
			t.Fatalf("earliestFitOn(lb=%g,w=%g) = %g, want %g", c.lb, c.w, got, c.want)
		}
	}
}

func TestInsertionStateInsertKeepsOrder(t *testing.T) {
	is := newInsertionState(1)
	is.insert(0, 8, 1)
	is.insert(0, 2, 1)
	is.insert(0, 5, 1)
	prev := -1.0
	for _, iv := range is.busy[0] {
		if iv.start < prev {
			t.Fatalf("busy list unsorted: %+v", is.busy[0])
		}
		prev = iv.start
	}
}

func TestInsertionNeverWorsePerDecision(t *testing.T) {
	// From the same partial state, the insertion policy's EST is <= the
	// append policy's EST for every (task, pool) pair: a queue tail is
	// always also a gap.
	in := FromDual(dag.PaperExample())
	p := dualPlatform(1, 1, 100, 100)
	app := NewPartial(in, p)
	ins := NewPartial(in, p)
	ins.ins = newInsertionState(p.TotalProcs())

	// Drive both with the same commits (from the append policy).
	for !app.Done() {
		var chosen Candidate
		found := false
		for _, id := range app.ReadyTasks() {
			for k := 0; k < p.NumPools(); k++ {
				ca := app.Evaluate(id, k)
				ci := ins.Evaluate(id, k)
				if ca.Feasible() && ci.EST > ca.EST+1e-9 {
					t.Fatalf("task %d on pool %d: insertion EST %g > append EST %g", id, k, ci.EST, ca.EST)
				}
				if ca.Feasible() && !found {
					chosen, found = ca, true
				}
			}
		}
		if !found {
			t.Fatal("stuck")
		}
		app.Commit(chosen)
		ins.Commit(ins.Evaluate(chosen.Task, chosen.Pool))
	}
}

// TestGoldenEquivalenceInsertionPolicy checks the insertion-based variant
// against a reference run that bypasses the candidate memo (every
// evaluation computed afresh) and re-derives readiness by scanning parents,
// exercising the shared static-part and commit machinery under the
// gap-filling policy.
func TestGoldenEquivalenceInsertionPolicy(t *testing.T) {
	g, err := daggen.Generate(daggen.SmallParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	in := FromDual(g)
	p := dualPlatform(2, 2, 400, 400)
	got, err := MemHEFTInsertion(tctx, in, p, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := insertionReference(in, p, 3)
	if err != nil {
		t.Fatalf("reference insertion run: %v", err)
	}
	sameSchedule(t, "insertion", got, st.Schedule())
}

// insertionReference runs MemHEFT under the insertion policy without the
// candidate memo: readiness by scanning parents, every evaluation computed
// afresh. It returns the Partial it drove, whose staircases show what the
// insertion policy kept.
func insertionReference(in *Instance, p Platform, seed int64) (*Partial, error) {
	g := in.G
	remaining, err := PriorityList(nil, in, seed)
	if err != nil {
		return nil, err
	}
	st := NewPartial(in, p)
	st.ins = newInsertionState(p.TotalProcs())
	ready := func(id dag.TaskID) bool {
		if st.Assigned(id) {
			return false
		}
		for _, e := range g.In(id) {
			if !st.Assigned(g.Edge(e).From) {
				return false
			}
		}
		return true
	}
	for len(remaining) > 0 {
		placed := false
		for index, id := range remaining {
			if !ready(id) {
				continue
			}
			c := Candidate{Task: id, Pool: -1, EST: inf, EFT: inf}
			for k := 0; k < p.NumPools(); k++ {
				if ck := st.evaluate(id, k); ck.EFT < c.EFT {
					c = ck
				}
			}
			if !c.Feasible() {
				continue
			}
			st.Commit(c)
			remaining = append(remaining[:index], remaining[index+1:]...)
			placed = true
			break
		}
		if !placed {
			return st, fmt.Errorf("%w (MemHEFT: %d of %d tasks unscheduled, first stuck task %d)",
				ErrMemoryBound, len(remaining), g.NumTasks(), remaining[0])
		}
	}
	return st, nil
}
