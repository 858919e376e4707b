package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/daggen"
	"repro/internal/multi"
	"repro/internal/platform"
)

// The golden-equivalence suite: the incremental schedulers (epoch-memoized
// candidates, heap selection, batched staircase splices, intrusive ready
// tracking) must produce schedules bit-identical to the retained naive
// reference implementations on every instance, feasible or not.

// sameSchedule compares two schedules field by field with exact float
// equality — the incremental engine must not perturb a single bit.
func sameSchedule(t *testing.T, tag string, got, want *multi.Schedule) {
	t.Helper()
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("%s: %d task placements, want %d", tag, len(got.Tasks), len(want.Tasks))
	}
	for i := range want.Tasks {
		if got.Tasks[i] != want.Tasks[i] {
			t.Fatalf("%s: task %d placed %+v, reference says %+v", tag, i, got.Tasks[i], want.Tasks[i])
		}
	}
	if len(got.CommStart) != len(want.CommStart) {
		t.Fatalf("%s: %d comm starts, want %d", tag, len(got.CommStart), len(want.CommStart))
	}
	for i := range want.CommStart {
		g, w := got.CommStart[i], want.CommStart[i]
		if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: comm %d starts at %g, reference says %g", tag, i, g, w)
		}
	}
}

// checkPair runs an optimized scheduler and its reference on the same
// instance and requires identical outcomes: same error classification and,
// when both succeed, identical schedules.
func checkPair(t *testing.T, tag string, opt, ref Func, g *dag.Graph, p platform.Platform, seed int64) (failed bool) {
	return checkPairCached(t, tag, opt, ref, g, p, seed, nil)
}

// checkPairCached is checkPair with the optimized side running under a
// caller-owned cache set (the session configuration); a cache shared across
// many calls must not perturb a single bit either.
func checkPairCached(t *testing.T, tag string, opt, ref Func, g *dag.Graph, p platform.Platform, seed int64, caches *multi.Caches) (failed bool) {
	t.Helper()
	so, eo := opt(tctx, g, p, Options{Seed: seed, Caches: caches})
	sr, er := ref(tctx, g, p, Options{Seed: seed})
	if (eo == nil) != (er == nil) {
		t.Fatalf("%s: optimized err=%v, reference err=%v", tag, eo, er)
	}
	if eo != nil {
		if !errors.Is(eo, ErrMemoryBound) || !errors.Is(er, ErrMemoryBound) {
			t.Fatalf("%s: unexpected error kind: optimized %v, reference %v", tag, eo, er)
		}
		if eo.Error() != er.Error() {
			t.Fatalf("%s: error text diverged:\noptimized: %v\nreference: %v", tag, eo, er)
		}
		return true
	}
	sameSchedule(t, tag, so, sr)
	return false
}

// TestGoldenEquivalenceRandomSweep sweeps random DAGs of varied shapes and
// memory pressures (from comfortable to infeasible) and asserts MemHEFT and
// MemMinMin match their naive references exactly on every one.
func TestGoldenEquivalenceRandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	sizes := []int{5, 12, 30, 60}
	alphas := []float64{0.3, 0.5, 0.8, 1.0}
	runs := 0
	for trial := 0; trial < 12; trial++ {
		params := daggen.SmallParams()
		params.Size = sizes[trial%len(sizes)]
		seed := rng.Int63()
		g, err := daggen.Generate(params, seed)
		if err != nil {
			t.Fatal(err)
		}
		p := platform.New(1+rng.Intn(3), 1+rng.Intn(3), platform.Unlimited, platform.Unlimited)
		// Peak memory of the unbounded run calibrates the pressure.
		s, err := MemHEFT(tctx, g, p, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		peakBlue, peakRed := peaks(s)
		peak := peakBlue
		if peakRed > peak {
			peak = peakRed
		}
		// One cache set per graph, shared across the whole pressure
		// sweep — the exact configuration a session runs with.
		caches := multi.NewCaches()
		for _, alpha := range alphas {
			bound := int64(alpha * float64(peak))
			bp := p.WithBounds(bound, bound)
			checkPairCached(t, "memheft", MemHEFT, MemHEFTReference, g, bp, seed, caches)
			checkPairCached(t, "memminmin", MemMinMin, MemMinMinReference, g, bp, seed, caches)
			runs += 2
		}
	}
	if runs == 0 {
		t.Fatal("sweep ran no instances")
	}
}

// TestGoldenEquivalenceLowMemoryFailures drives both schedulers into the
// ErrMemoryBound path and checks the failure reports match the references.
func TestGoldenEquivalenceLowMemoryFailures(t *testing.T) {
	g, err := daggen.Generate(daggen.SmallParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.New(2, 2, 1, 1) // far below any peak: must fail identically
	hFailed := checkPair(t, "memheft-fail", MemHEFT, MemHEFTReference, g, p, 5)
	mFailed := checkPair(t, "memminmin-fail", MemMinMin, MemMinMinReference, g, p, 5)
	if !hFailed || !mFailed {
		t.Fatal("expected both schedulers to hit the memory bound")
	}
}

// TestIncrementalStateMatchesScans replays a schedule commit by commit and
// cross-checks every piece of incremental bookkeeping (ready list, ready
// predicate, running makespan) against its naive scan on each step.
func TestIncrementalStateMatchesScans(t *testing.T) {
	g, err := daggen.Generate(daggen.SmallParams(), 17)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.New(2, 1, platform.Unlimited, platform.Unlimited)
	st := NewPartial(g, p)
	for !st.Done() {
		// Naive ready scan.
		var want []dag.TaskID
		for i := 0; i < g.NumTasks(); i++ {
			if readyByScan(st, g, dag.TaskID(i)) {
				want = append(want, dag.TaskID(i))
			}
		}
		got := st.ReadyTasks()
		if len(got) != len(want) {
			t.Fatalf("ready list %v, scan says %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ready list %v, scan says %v", got, want)
			}
		}
		for i := 0; i < g.NumTasks(); i++ {
			id := dag.TaskID(i)
			if st.Ready(id) != readyByScan(st, g, id) {
				t.Fatalf("Ready(%d) = %v, scan says %v", id, st.Ready(id), readyByScan(st, g, id))
			}
		}
		if ms, scan := st.MakespanSoFar(), makespanByScan(st, g); ms != scan {
			t.Fatalf("MakespanSoFar = %g, scan says %g", ms, scan)
		}
		// Commit the min-EFT candidate, as MemMinMin would.
		best := multi.Candidate{EFT: math.Inf(1)}
		for _, id := range got {
			if c := st.Best(id); c.EFT < best.EFT {
				best = c
			}
		}
		if !best.Feasible() {
			t.Fatal("unbounded run blocked")
		}
		st.Commit(best)
	}
	if ms, scan := st.MakespanSoFar(), makespanByScan(st, g); ms != scan {
		t.Fatalf("final MakespanSoFar = %g, scan says %g", ms, scan)
	}
}

// TestCloneIntoIndependence verifies that a pooled CloneInto target is a
// faithful independent copy: committing to the clone leaves the original
// untouched and vice versa, including the memoization state.
func TestCloneIntoIndependence(t *testing.T) {
	g, err := daggen.Generate(daggen.SmallParams(), 23)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.New(2, 2, 300, 300)
	st := NewPartial(g, p)
	// Warm the caches and commit a couple of tasks.
	for k := 0; k < 2; k++ {
		ready := st.ReadyTasks()
		if len(ready) == 0 {
			t.Fatal("no ready tasks")
		}
		c := st.Best(ready[0])
		if !c.Feasible() {
			t.Fatal("blocked")
		}
		st.Commit(c)
	}
	clone := st.CloneInto(nil)
	dirty := NewPartial(g, p) // pooled target with unrelated state
	clone2 := st.CloneInto(dirty)
	if clone2 != dirty {
		t.Fatal("CloneInto did not reuse the target")
	}

	msBefore := st.MakespanSoFar()
	readyBefore := append([]dag.TaskID(nil), st.ReadyTasks()...)
	for _, c := range []*multi.Partial{clone, clone2} {
		ready := c.ReadyTasks()
		if len(ready) != len(readyBefore) {
			t.Fatalf("clone ready %v, want %v", ready, readyBefore)
		}
		cand := c.Best(ready[0])
		if !cand.Feasible() {
			t.Fatal("clone blocked")
		}
		c.Commit(cand)
	}
	if st.MakespanSoFar() != msBefore {
		t.Fatal("committing to a clone changed the original's makespan")
	}
	got := st.ReadyTasks()
	for i := range readyBefore {
		if got[i] != readyBefore[i] {
			t.Fatalf("committing to a clone changed the original's ready list: %v, want %v", got, readyBefore)
		}
	}
	// The original still schedules to the same result as a fresh run.
	want, err := MemMinMinReference(tctx, g, p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := MemMinMin(tctx, g, p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, "post-clone", got2, want)
}
