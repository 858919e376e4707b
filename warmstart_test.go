package memsched

import (
	"context"
	"sync"
	"testing"

	"repro/internal/daggen"
)

func warmTestGraph(t *testing.T, size int, seed int64) *Graph {
	t.Helper()
	params := daggen.SmallParams()
	params.Size = size
	g, err := daggen.Generate(params, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWarmStartChainMatchesCold walks a shrinking-capacity chain with
// WithWarmStart and asserts every schedule is bit-identical to a cold run
// on a fresh session, with replay doing real work after the first point.
func TestWarmStartChainMatchesCold(t *testing.T) {
	ctx := context.Background()
	g := warmTestGraph(t, 70, 17)
	warm, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate from the unbounded peak down into the infeasible band.
	ref, err := warm.Schedule(ctx, NewDualPlatform(2, 2, Unlimited, Unlimited), WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	peak := ref.PeakResidency()[0]
	if p := ref.PeakResidency()[1]; p > peak {
		peak = p
	}
	replayedTotal := 0
	for step, frac := range []float64{1.0, 0.9, 0.8, 0.7, 0.5, 0.3} {
		capacity := int64(frac * float64(peak))
		p := NewDualPlatform(2, 2, capacity, capacity)
		wres, werr := warm.Schedule(ctx, p, WithSeed(17), WithWarmStart(true))
		cres, cerr := cold.Schedule(ctx, p, WithSeed(17))
		if (werr == nil) != (cerr == nil) {
			t.Fatalf("step %d: warm err %v, cold err %v", step, werr, cerr)
		}
		if werr != nil {
			continue // both infeasible: nothing to compare, no trace stored
		}
		if len(wres.Pools.Tasks) != len(cres.Pools.Tasks) {
			t.Fatalf("step %d: task count diverged", step)
		}
		for i := range cres.Pools.Tasks {
			if wres.Pools.Tasks[i] != cres.Pools.Tasks[i] {
				t.Fatalf("step %d: task %d placed %+v warm, %+v cold",
					step, i, wres.Pools.Tasks[i], cres.Pools.Tasks[i])
			}
		}
		if step == 0 && wres.Stats.ReplayedPlacements != 0 {
			t.Fatalf("first warm run replayed %d placements with no trace", wres.Stats.ReplayedPlacements)
		}
		replayedTotal += wres.Stats.ReplayedPlacements
	}
	if replayedTotal == 0 {
		t.Fatal("shrinking chain never replayed a placement")
	}
}

// TestWarmStartGrowingCapacityNotReplayed pins the soundness guard: a trace
// recorded on a smaller platform must not be replayed when a capacity grew
// — growth can unblock tasks the trace never saw.
func TestWarmStartGrowingCapacityNotReplayed(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(warmTestGraph(t, 50, 9))
	if err != nil {
		t.Fatal(err)
	}
	small := NewDualPlatform(2, 2, 1<<40, 1<<40)
	big := NewDualPlatform(2, 2, 1<<41, 1<<41)
	if !ReplayEligible(big, small) || ReplayEligible(small, big) {
		t.Fatal("ReplayEligible direction wrong")
	}
	if _, err := sess.Schedule(ctx, small, WithSeed(9), WithWarmStart(true)); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Schedule(ctx, big, WithSeed(9), WithWarmStart(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReplayedPlacements != 0 {
		t.Fatalf("grown capacity replayed %d placements", res.Stats.ReplayedPlacements)
	}
	// The big run's own trace replaces the small one; shrinking back is
	// eligible again and replays fully (the schedule is unchanged).
	res, err = sess.Schedule(ctx, small, WithSeed(9), WithWarmStart(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReplayedPlacements == 0 {
		t.Fatal("shrinking back replayed nothing")
	}
}

// TestWarmStartInsertionInert pins that the insertion ablation never
// records or replays: its commits depend on idle-gap state a trace does not
// capture.
func TestWarmStartInsertionInert(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(warmTestGraph(t, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	p := NewDualPlatform(2, 2, Unlimited, Unlimited)
	for round := 0; round < 2; round++ {
		res, err := sess.Schedule(ctx, p, WithSeed(3), WithInsertion(), WithWarmStart(true))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ReplayedPlacements != 0 || res.Stats.ReplayTruncated {
			t.Fatalf("round %d: insertion run replayed %d placements", round, res.Stats.ReplayedPlacements)
		}
	}
}

// TestWarmUpCancellation pins the cooperative-cancellation contract of
// WarmUp.
func TestWarmUpCancellation(t *testing.T) {
	sess, err := NewSession(warmTestGraph(t, 60, 5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sess.WarmUp(ctx, 5); err == nil {
		t.Fatal("cancelled WarmUp succeeded")
	}
	if err := sess.WarmUp(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentForkDetach exercises the copy-on-write fork machinery under
// the race detector: warm forks (and a fork-of-fork) schedule divergent
// seeds — each detaching onto its private memo — while the parent keeps
// scheduling its own seed and taking further forks. Run with -race this
// proves the frozen snapshot handoff never races with parent writes.
func TestConcurrentForkDetach(t *testing.T) {
	ctx := context.Background()
	g := warmTestGraph(t, 60, 13)
	parent, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.WarmUp(ctx, 13); err != nil {
		t.Fatal(err)
	}
	p := NewDualPlatform(2, 2, Unlimited, Unlimited)
	want, err := parent.Schedule(ctx, p, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for i := 0; i < 8; i++ {
		fork := parent.Fork()
		if i%2 == 1 {
			fork = fork.Fork() // fork-of-fork merges frozen views
		}
		wg.Add(1)
		go func(fork *Session, seed int64) {
			defer wg.Done()
			// Inherited seed first (served frozen), then a divergent
			// seed (copy-on-write detach), then warm-start replay runs.
			if _, err := fork.Schedule(ctx, p, WithSeed(13)); err != nil {
				errc <- err
				return
			}
			if _, err := fork.Schedule(ctx, p, WithSeed(seed)); err != nil {
				errc <- err
				return
			}
			for r := 0; r < 3; r++ {
				if _, err := fork.Schedule(ctx, p, WithSeed(seed), WithWarmStart(true)); err != nil {
					errc <- err
					return
				}
			}
		}(fork, int64(100+i))
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := parent.Schedule(ctx, p, WithSeed(13)); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	again, err := parent.Schedule(ctx, p, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Pools.Tasks {
		if again.Pools.Tasks[i] != want.Pools.Tasks[i] {
			t.Fatalf("parent schedule diverged at task %d after concurrent forks", i)
		}
	}
}
