package multi

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
)

// The golden-equivalence suite of the engine: the incremental schedulers
// (epoch-memoized candidates per (task, pool), heap selection, batched
// staircase splices, staircase windows, parent counters, session memos)
// must produce schedules bit-identical to the retained naive reference
// implementations on every instance, feasible or not.

// sameSchedule compares two k-pool schedules field by field, the times bit
// for bit (intra-pool comm starts are NaN, which == never matches).
func sameSchedule(t *testing.T, tag string, got, want *Schedule) {
	t.Helper()
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("%s: %d task placements, want %d", tag, len(got.Tasks), len(want.Tasks))
	}
	for i, w := range want.Tasks {
		g := got.Tasks[i]
		if g.Proc != w.Proc || math.Float64bits(g.Start) != math.Float64bits(w.Start) {
			t.Fatalf("%s: task %d placed %+v, reference says %+v", tag, i, g, w)
		}
	}
	if len(got.CommStart) != len(want.CommStart) {
		t.Fatalf("%s: %d comm starts, want %d", tag, len(got.CommStart), len(want.CommStart))
	}
	for i, w := range want.CommStart {
		if g := got.CommStart[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: comm %d starts at %g (bits %x), reference says %g (bits %x)",
				tag, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// sameOutcome requires two runs to fail at the memory bound with the same
// error text, or to succeed with bit-identical schedules.
func sameOutcome(t *testing.T, tag string, got *Schedule, gotErr error, want *Schedule, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: optimized err=%v, reference err=%v", tag, gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrMemoryBound) || !errors.Is(wantErr, ErrMemoryBound) {
			t.Fatalf("%s: unexpected error kind: optimized %v, reference %v", tag, gotErr, wantErr)
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error text diverged:\noptimized: %v\nreference: %v", tag, gotErr, wantErr)
		}
		return
	}
	sameSchedule(t, tag, got, want)
}

// checkPairCached runs an optimized scheduler under a caller-owned cache
// set and its reference on the same instance and requires identical
// outcomes (sameOutcome). It reports whether both failed.
func checkPairCached(t *testing.T, tag string, opt, ref Func, in *Instance, p Platform, seed int64, caches *Caches) (failed bool) {
	t.Helper()
	so, eo := opt(tctx, in, p, Options{Seed: seed, Caches: caches})
	sr, er := ref(tctx, in, p, Options{Seed: seed})
	sameOutcome(t, tag, so, eo, sr, er)
	return eo != nil
}

// randomInstance builds a seeded random DAG with a k-column timing matrix.
func randomInstance(seed int64, n, k int) *Instance {
	g := randomDAG(seed, n)
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	times := make([][]float64, g.NumTasks())
	for i := range times {
		times[i] = make([]float64, k)
		for j := range times[i] {
			times[i][j] = float64(rng.Intn(20) + 1)
		}
	}
	return NewInstance(g, times)
}

// totalFiles sums every edge file of the instance (a capacity that always
// fits on any single pool).
func totalFiles(in *Instance) int64 {
	var total int64
	for e := 0; e < in.G.NumEdges(); e++ {
		total += in.G.Edge(dag.EdgeID(e)).File
	}
	return total
}

// TestGoldenEquivalenceKPool sweeps random instances over pool counts,
// shapes and memory pressures (from comfortable to infeasible) and asserts
// MemHEFT and MemMinMin match their naive references exactly on every one —
// including on the second, memo-warm round under a shared cache set.
func TestGoldenEquivalenceKPool(t *testing.T) {
	sizes := []int{6, 14, 30}
	pools := []int{1, 2, 3, 4, 6}
	alphas := []float64{0.25, 0.5, 0.9, 2.0}
	runs, failures := 0, 0
	for _, n := range sizes {
		for _, k := range pools {
			seed := int64(100*n + k)
			in := randomInstance(seed, n, k)
			total := totalFiles(in)
			caches := NewCaches()
			for _, alpha := range alphas {
				bound := int64(alpha * float64(total))
				if bound < 1 {
					bound = 1
				}
				poolList := make([]Pool, k)
				for j := range poolList {
					poolList[j] = Pool{Procs: 1 + j%2, Capacity: bound}
				}
				p := NewPlatform(poolList...)
				for round := 0; round < 2; round++ {
					if checkPairCached(t, "MemHEFT", MemHEFT, MemHEFTReference, in, p, seed, caches) {
						failures++
					}
					if checkPairCached(t, "MemMinMin", MemMinMin, MemMinMinReference, in, p, seed, caches) {
						failures++
					}
					runs += 2
				}
			}
		}
	}
	if runs == 0 {
		t.Fatal("no equivalence runs executed")
	}
	if failures == 0 {
		t.Log("note: no infeasible instances in the sweep; consider tightening alphas")
	}
}

// TestGoldenEquivalenceUnbounded pins the memory-oblivious path: with every
// pool unbounded the incremental engine skips all staircase maintenance,
// which must not change a single placement.
func TestGoldenEquivalenceUnbounded(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		in := randomInstance(int64(7*k), 24, k)
		p := make([]Pool, k)
		for j := range p {
			p[j] = Pool{Procs: 2, Capacity: 1 << 40}
		}
		plat := NewPlatform(p...).Unbounded()
		caches := NewCaches()
		checkPairCached(t, "MemHEFT-unbounded", MemHEFT, MemHEFTReference, in, plat, 3, caches)
		checkPairCached(t, "MemMinMin-unbounded", MemMinMin, MemMinMinReference, in, plat, 3, caches)
	}
}

// TestGoldenEquivalenceAsymmetricPools stresses pools with different
// processor counts, including processor-less pools, which must simply never
// receive tasks (and not corrupt the candidate memo indexing).
func TestGoldenEquivalenceAsymmetricPools(t *testing.T) {
	in := randomInstance(99, 20, 4)
	total := totalFiles(in)
	p := NewPlatform(
		Pool{Procs: 3, Capacity: total},
		Pool{Procs: 0, Capacity: total}, // no processors: always infeasible
		Pool{Procs: 1, Capacity: total / 2},
		Pool{Procs: 2, Capacity: total / 4},
	)
	caches := NewCaches()
	for round := 0; round < 2; round++ {
		checkPairCached(t, "MemHEFT-asym", MemHEFT, MemHEFTReference, in, p, 5, caches)
		checkPairCached(t, "MemMinMin-asym", MemMinMin, MemMinMinReference, in, p, 5, caches)
	}
}

// TestRecycledPartialKeepsSchedulesIndependent guards the Partial recycling
// path: the schedule returned by one run must stay intact after the session
// cache recycles the partial's buffers into a later run.
func TestRecycledPartialKeepsSchedulesIndependent(t *testing.T) {
	in := randomInstance(11, 25, 3)
	total := totalFiles(in)
	p := NewPlatform(Pool{2, total}, Pool{1, total}, Pool{1, total})
	caches := NewCaches()
	first, err := MemHEFT(tctx, in, p, Options{Seed: 1, Caches: caches})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]Placement(nil), first.Tasks...)
	// A second run with a different seed recycles the first run's partial.
	if _, err := MemHEFT(tctx, in, p, Options{Seed: 2, Caches: caches}); err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if first.Tasks[i] != snapshot[i] {
			t.Fatalf("recycling corrupted the first schedule at task %d: %+v vs %+v", i, first.Tasks[i], snapshot[i])
		}
	}
	if err := first.Validate(); err != nil {
		t.Fatalf("first schedule no longer valid after recycling: %v", err)
	}
}
