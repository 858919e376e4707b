package memsched

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/daggen"
	"repro/internal/multi"
)

// sameSchedule compares placements and communication starts with exact
// float equality.
func sameSchedule(t *testing.T, tag string, got, want *PoolSchedule) {
	t.Helper()
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("%s: %d task placements, want %d", tag, len(got.Tasks), len(want.Tasks))
	}
	for i := range want.Tasks {
		if got.Tasks[i] != want.Tasks[i] {
			t.Fatalf("%s: task %d placed %+v, reference says %+v", tag, i, got.Tasks[i], want.Tasks[i])
		}
	}
	for i := range want.CommStart {
		g, w := got.CommStart[i], want.CommStart[i]
		if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: comm %d starts at %g, reference says %g", tag, i, g, w)
		}
	}
}

// TestSessionGoldenEquivalence sweeps memory pressures and asserts that
// Session.Schedule — the cached, session-owned path — produces schedules
// bit-identical to the retained naive reference oracles, for both
// heuristics, including identical failure classification.
func TestSessionGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	g, err := daggen.Generate(daggen.SmallParams(), 41)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	unbounded := NewDualPlatform(2, 2, Unlimited, Unlimited)
	ref, err := sess.Schedule(ctx, unbounded, WithScheduler("memheft"), WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	peaks := ref.PeakResidency()
	peak := peaks[0]
	if peaks[1] > peak {
		peak = peaks[1]
	}
	oracles := map[string]multi.Func{
		"memheft":   multi.MemHEFTReference,
		"memminmin": multi.MemMinMinReference,
	}
	for _, alpha := range []float64{0.3, 0.5, 0.8, 1.0} {
		bound := int64(alpha * float64(peak))
		p := NewDualPlatform(2, 2, bound, bound)
		for name, oracle := range oracles {
			// Twice per instance: the second call is served from the
			// session's warm memos and must not diverge.
			for round := 0; round < 2; round++ {
				res, gotErr := sess.Schedule(ctx, p, WithScheduler(name), WithSeed(41))
				want, wantErr := oracle(ctx, DualInstance(g), p, multi.Options{Seed: 41})
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s alpha=%g: session err=%v, reference err=%v", name, alpha, gotErr, wantErr)
				}
				if gotErr != nil {
					if !errors.Is(gotErr, ErrMemoryBound) {
						t.Fatalf("%s alpha=%g: unexpected error kind %v", name, alpha, gotErr)
					}
					continue
				}
				sameSchedule(t, name, res.Pools, want)
				if res.Stats.Makespan != want.Makespan() {
					t.Fatalf("%s: stats makespan %g, schedule says %g", name, res.Stats.Makespan, want.Makespan())
				}
			}
		}
	}
}

// TestSessionDualAsTwoPool checks the collapsed surface both ways: a
// pool-times session carrying the dual columns must reproduce a plain
// session's placements exactly on the same 2-pool platform.
func TestSessionDualAsTwoPool(t *testing.T) {
	ctx := context.Background()
	g, err := daggen.Generate(daggen.SmallParams(), 17)
	if err != nil {
		t.Fatal(err)
	}
	times := make([][]float64, g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		task := g.Task(TaskID(i))
		times[i] = []float64{task.WBlue, task.WRed}
	}
	dualSess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	poolSess, err := NewSession(g, WithPoolTimes(times))
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []int64{40, 120, Unlimited} {
		p := NewDualPlatform(2, 2, bound, bound)
		for _, name := range []string{"memheft", "memminmin"} {
			dres, derr := dualSess.Schedule(ctx, p, WithScheduler(name), WithSeed(17))
			mres, merr := poolSess.Schedule(ctx, p, WithScheduler(name), WithSeed(17))
			if (derr == nil) != (merr == nil) {
				t.Fatalf("%s bound=%d: dual err=%v, pool err=%v", name, bound, derr, merr)
			}
			if derr != nil {
				if !errors.Is(derr, ErrMemoryBound) || !errors.Is(merr, ErrMemoryBound) {
					t.Fatalf("%s bound=%d: error kinds diverge: %v vs %v", name, bound, derr, merr)
				}
				continue
			}
			sameSchedule(t, name, mres.Pools, dres.Pools)
			if err := mres.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestConcurrentSessionsDifferentGraphs is the contention regression test
// for the deleted process-global caches: two sessions over two different
// graphs are hammered from many goroutines concurrently (run under -race),
// and every result must stay bit-identical to the single-threaded
// reference. With the old single-slot globals this pattern thrashed the
// slot and serialized on the package mutexes.
func TestConcurrentSessionsDifferentGraphs(t *testing.T) {
	ctx := context.Background()
	params := daggen.SmallParams()
	params.Size = 40
	g1, err := daggen.Generate(params, 100)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := daggen.Generate(params, 200)
	if err != nil {
		t.Fatal(err)
	}
	p := NewDualPlatform(2, 2, 300, 300)
	type fixture struct {
		sess *Session
		want map[string]*PoolSchedule
		g    *Graph
	}
	fixtures := make([]fixture, 0, 2)
	for _, g := range []*Graph{g1, g2} {
		sess, err := NewSession(g)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]*PoolSchedule{}
		for name, oracle := range map[string]multi.Func{
			"memheft":   multi.MemHEFTReference,
			"memminmin": multi.MemMinMinReference,
		} {
			s, err := oracle(ctx, DualInstance(g), p, multi.Options{Seed: 9})
			if err != nil {
				t.Fatalf("reference %s: %v", name, err)
			}
			want[name] = s
		}
		fixtures = append(fixtures, fixture{sess: sess, want: want, g: g})
	}

	const goroutines, iters = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fx := fixtures[(w+i)%len(fixtures)]
				name := "memheft"
				if (w+i)%4 >= 2 {
					name = "memminmin"
				}
				res, err := fx.sess.Schedule(ctx, p, WithScheduler(name), WithSeed(9))
				if err != nil {
					t.Errorf("goroutine %d: %v", w, err)
					return
				}
				got, want := res.Pools, fx.want[name]
				for j := range want.Tasks {
					if got.Tasks[j] != want.Tasks[j] {
						t.Errorf("goroutine %d: %s task %d placed %+v, want %+v", w, name, j, got.Tasks[j], want.Tasks[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSchedulerRegistry covers the registry satellite: enumeration is
// sorted, resolution is case-insensitive, and errors list every registered
// name.
func TestSchedulerRegistry(t *testing.T) {
	names := Schedulers()
	if len(names) < 4 {
		t.Fatalf("registry too small: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("registry not sorted: %v", names)
		}
	}
	sess, err := NewSession(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	p := NewDualPlatform(1, 1, 10, 10)
	for _, variant := range []string{"memheft", "MemHEFT", "MEMHEFT", "  memheft ", "MemMinMin"} {
		if _, err := sess.Schedule(context.Background(), p, WithScheduler(variant)); err != nil {
			t.Fatalf("WithScheduler(%q): %v", variant, err)
		}
	}
	_, err = sess.Schedule(context.Background(), p, WithScheduler("bogus"))
	if err == nil {
		t.Fatal("bogus scheduler accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("registry error %q does not list %q", err, name)
		}
	}
}

// TestSessionContextCancellation checks cooperative cancellation end to
// end: an already-cancelled context interrupts Schedule and Simulate with
// the context error, and Optimal treats it as an exhausted budget.
func TestSessionContextCancellation(t *testing.T) {
	params := daggen.SmallParams()
	params.Size = 100
	g, err := daggen.Generate(params, 7)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	p := NewDualPlatform(2, 2, Unlimited, Unlimited)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Schedule(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Schedule on cancelled ctx: err = %v", err)
	}
	if _, err := sess.Simulate(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Simulate on cancelled ctx: err = %v", err)
	}
	// Optimal: cancellation behaves like an exhausted budget, not an
	// error; with no time at all the status cannot be proven.
	res, err := sess.Optimal(ctx, p, WithMaxNodes(1<<30))
	if err != nil {
		t.Fatalf("Optimal on cancelled ctx: %v", err)
	}
	if res.Stats.Proven {
		t.Fatal("cancelled Optimal claimed a proven result")
	}
	// WithTimeout wires the same mechanism without a caller context.
	res, err = sess.Optimal(context.Background(), p, WithTimeout(time.Nanosecond), WithMaxNodes(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Proven {
		t.Fatal("nanosecond Optimal claimed a proven result")
	}
}

// TestSessionStats sanity-checks the structured stats: warm runs hit the
// candidate cache, wall time is recorded, and Optimal reports its node
// count.
func TestSessionStats(t *testing.T) {
	ctx := context.Background()
	g, err := daggen.Generate(daggen.SmallParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	p := NewDualPlatform(2, 2, 200, 200)
	res, err := sess.Schedule(ctx, p, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Scheduler != "memheft" {
		t.Fatalf("default scheduler recorded as %q", res.Stats.Scheduler)
	}
	if res.Stats.CacheHits+res.Stats.CacheMisses == 0 {
		t.Fatal("no candidate evaluations recorded")
	}
	if rate := res.Stats.CacheHitRate(); rate < 0 || rate > 1 {
		t.Fatalf("cache hit rate %g out of range", rate)
	}
	if res.Stats.WallTime <= 0 {
		t.Fatal("wall time not recorded")
	}
	if peaks := res.PeakResidency(); len(peaks) != 2 || (peaks[0] == 0 && peaks[1] == 0) {
		t.Fatalf("peak residency %v", peaks)
	}
	opt, err := sess.Optimal(ctx, NewDualPlatform(1, 1, 5, 5), WithMaxNodes(1000))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.Nodes <= 0 {
		t.Fatal("Optimal explored no nodes")
	}
	sim, err := sess.Simulate(ctx, p, WithPolicy(SimEFTPolicy))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Stats.Events <= 0 || sim.Stats.Scheduler != "sim-eft" {
		t.Fatalf("simulate stats: %+v", sim.Stats)
	}
}

// TestSessionKPoolRouting checks the platform-arity rules: dual sessions
// reject non-2-pool platforms on every entry point, and insertion requires
// the memheft scheduler but no particular pool count.
func TestSessionKPoolRouting(t *testing.T) {
	ctx := context.Background()
	g := PaperExample()
	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	three := NewPlatform(Pool{Procs: 1, Capacity: 10}, Pool{Procs: 1, Capacity: 10}, Pool{Procs: 1, Capacity: 10})
	if _, err := sess.Schedule(ctx, three); err == nil {
		t.Fatal("dual session accepted a 3-pool platform")
	}
	if _, err := sess.Optimal(ctx, three); err == nil {
		t.Fatal("Optimal accepted a 3-pool platform")
	}
	if _, err := sess.Simulate(ctx, three); err == nil {
		t.Fatal("Simulate accepted a 3-pool platform")
	}
	if _, err := sess.LowerBound(three); err == nil {
		t.Fatal("LowerBound accepted a 3-pool platform")
	}
	p := NewDualPlatform(1, 1, 10, 10)
	if _, err := sess.Schedule(ctx, p, WithScheduler("memminmin"), WithInsertion()); err == nil {
		t.Fatal("WithInsertion accepted for memminmin")
	}
	res, err := sess.Schedule(ctx, p, WithInsertion())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Scheduler != "memheft-insertion" {
		t.Fatalf("insertion run recorded as %q", res.Stats.Scheduler)
	}
	triple := make([][]float64, g.NumTasks())
	for i := range triple {
		task := g.Task(TaskID(i))
		triple[i] = []float64{task.WBlue, task.WRed, task.WRed}
	}
	kSess, err := NewSession(g, WithPoolTimes(triple))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := kSess.Schedule(ctx, three, WithInsertion()); err != nil || res.Validate() != nil {
		t.Fatalf("insertion on 3 pools: %v", err)
	}
}

// TestSessionKPoolStats covers the k-pool stats surface added with the
// incremental engine: candidate-cache counters are reported, the warm
// second call hits the session memos, and PoolTasks accounts for every
// task.
func TestSessionKPoolStats(t *testing.T) {
	ctx := context.Background()
	params := daggen.SmallParams()
	params.Size = 40
	g, err := daggen.Generate(params, 23)
	if err != nil {
		t.Fatal(err)
	}
	times := make([][]float64, g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		task := g.Task(TaskID(i))
		times[i] = []float64{task.WBlue, task.WRed, (task.WBlue + task.WRed) / 2}
	}
	sess, err := NewSession(g, WithPoolTimes(times))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(
		Pool{Procs: 2, Capacity: Unlimited},
		Pool{Procs: 1, Capacity: Unlimited},
		Pool{Procs: 1, Capacity: Unlimited},
	)
	// MemMinMin's lazy heap invalidation re-serves every fresh (task, pool)
	// slot from the memo, so its hit rate must be strictly positive; on an
	// unconstrained platform MemHEFT commits the first ready task of every
	// scan, so only the counters' presence is asserted for it below.
	mres, err := sess.Schedule(ctx, p, WithScheduler("memminmin"), WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	if rate := mres.Stats.CacheHitRate(); rate <= 0 || rate > 1 {
		t.Fatalf("k-pool memminmin cache hit rate %g, want in (0, 1]", rate)
	}
	var prev *Result
	for round := 0; round < 2; round++ {
		res, err := sess.Schedule(ctx, p, WithScheduler("memheft"), WithSeed(23))
		if err != nil {
			t.Fatal(err)
		}
		if res.Pools == nil {
			t.Fatal("k-pool run did not produce a pool schedule")
		}
		if res.Stats.CacheHits+res.Stats.CacheMisses == 0 {
			t.Fatal("no candidate evaluations recorded")
		}
		if len(res.Stats.PoolTasks) != 3 {
			t.Fatalf("PoolTasks = %v, want 3 pools", res.Stats.PoolTasks)
		}
		sum := 0
		for _, n := range res.Stats.PoolTasks {
			sum += n
		}
		if sum != g.NumTasks() {
			t.Fatalf("PoolTasks %v sums to %d, want %d", res.Stats.PoolTasks, sum, g.NumTasks())
		}
		if res.Stats.Makespan != res.Pools.Makespan() {
			t.Fatalf("stats makespan %g, schedule says %g", res.Stats.Makespan, res.Pools.Makespan())
		}
		if peaks := res.PeakResidency(); len(peaks) != 3 {
			t.Fatalf("peak residency %v", peaks)
		}
		if prev != nil {
			for i := range prev.Pools.Tasks {
				if prev.Pools.Tasks[i] != res.Pools.Tasks[i] {
					t.Fatalf("warm round diverged at task %d", i)
				}
			}
		}
		prev = res
	}
}

// TestSessionForkWarmAndCold pins the fork contract after the copy-on-write
// redesign: warm forks (the default) and cold forks both produce schedules
// bit-identical to the parent's, a warm fork starts with the parent's memo
// content (its first call computes no priority list), and a warm fork
// diverging onto a new seed detaches without disturbing the parent.
func TestSessionForkWarmAndCold(t *testing.T) {
	ctx := context.Background()
	params := daggen.SmallParams()
	params.Size = 60
	g, err := daggen.Generate(params, 31)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.WarmUp(ctx, 31); err != nil {
		t.Fatal(err)
	}
	p := NewDualPlatform(2, 2, Unlimited, Unlimited)
	want, err := sess.Schedule(ctx, p, WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	for name, fork := range map[string]*Session{
		"warm": sess.Fork(),
		"cold": sess.Fork(ForkCold()),
	} {
		got, err := fork.Schedule(ctx, p, WithSeed(31))
		if err != nil {
			t.Fatalf("%s fork: %v", name, err)
		}
		if len(got.Pools.Tasks) != len(want.Pools.Tasks) {
			t.Fatalf("%s fork: task count diverged", name)
		}
		for i := range want.Pools.Tasks {
			if got.Pools.Tasks[i] != want.Pools.Tasks[i] {
				t.Fatalf("%s fork: task %d placed %+v, parent says %+v", name, i, got.Pools.Tasks[i], want.Pools.Tasks[i])
			}
		}
	}
	// A fork-of-fork still carries the frozen memos, and a divergent seed
	// schedules correctly (copy-on-write detach, parent untouched).
	grand := sess.Fork().Fork()
	div, err := grand.Schedule(ctx, p, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := div.Pools.Validate(); err != nil {
		t.Fatal(err)
	}
	again, err := sess.Schedule(ctx, p, WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Pools.Tasks {
		if again.Pools.Tasks[i] != want.Pools.Tasks[i] {
			t.Fatalf("parent diverged at task %d after fork detach", i)
		}
	}
}

// TestSessionKPoolCancellation mirrors the dual-path cancellation test for
// the generalised engine: an already-cancelled context interrupts a k-pool
// Schedule with the context error.
func TestSessionKPoolCancellation(t *testing.T) {
	params := daggen.SmallParams()
	params.Size = 60
	g, err := daggen.Generate(params, 13)
	if err != nil {
		t.Fatal(err)
	}
	times := make([][]float64, g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		task := g.Task(TaskID(i))
		times[i] = []float64{task.WBlue, task.WRed, task.WRed + 2}
	}
	sess, err := NewSession(g, WithPoolTimes(times))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(
		Pool{Procs: 1, Capacity: Unlimited},
		Pool{Procs: 1, Capacity: Unlimited},
		Pool{Procs: 1, Capacity: Unlimited},
	)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"memheft", "memminmin"} {
		if _, err := sess.Schedule(ctx, p, WithScheduler(name)); !errors.Is(err, context.Canceled) {
			t.Fatalf("k-pool %s on cancelled ctx: err = %v", name, err)
		}
	}
}

// TestThreePoolOptimalBracketsHeuristics runs the exact search on 3-pool
// platforms: every proven optimum is at most each heuristic's makespan
// (the heuristics' schedules lie in the searched list-schedule space; the
// memory-oblivious ones only on an unbounded platform) and at least
// LowerBound, and every result validates.
func TestThreePoolOptimalBracketsHeuristics(t *testing.T) {
	ctx := context.Background()
	proven, compared := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		params := daggen.SmallParams()
		params.Size = 6
		g, err := daggen.Generate(params, seed)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(g, WithPoolTimes(poolTimes(g, 3)))
		if err != nil {
			t.Fatal(err)
		}
		unbounded := NewPlatform(Pool{Procs: 1, Capacity: Unlimited}, Pool{Procs: 1, Capacity: Unlimited}, Pool{Procs: 1, Capacity: Unlimited})
		ref, err := sess.Schedule(ctx, unbounded, WithScheduler("heft"))
		if err != nil {
			t.Fatal(err)
		}
		lb, err := sess.LowerBound(unbounded)
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{0, 1, 0.7} {
			p := unbounded
			if alpha > 0 {
				p = unbounded.WithUniformBounds(int64(alpha * float64(slices.Max(ref.PeakResidency()))))
			}
			opt, err := sess.Optimal(ctx, p, WithMaxNodes(200000))
			if err != nil {
				t.Fatal(err)
			}
			if opt.Pools != nil {
				if err := opt.Validate(); err != nil {
					t.Fatalf("seed %d %v: optimal: %v", seed, p, err)
				}
				if opt.Makespan() < lb-1e-9 {
					t.Fatalf("seed %d %v: optimum %g below the lower bound %g", seed, p, opt.Makespan(), lb)
				}
			}
			if opt.Stats.Proven {
				proven++
			}
			names := []string{"memheft", "memminmin"}
			if alpha == 0 {
				names = append(names, "heft", "minmin")
			}
			for _, name := range names {
				res, err := sess.Schedule(ctx, p, WithScheduler(name), WithSeed(seed))
				if errors.Is(err, ErrMemoryBound) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Validate(); err != nil {
					t.Fatalf("seed %d %v %s: %v", seed, p, name, err)
				}
				if !opt.Stats.Proven {
					continue
				}
				if opt.Pools == nil {
					t.Fatalf("seed %d %v: %s scheduled what Optimal proved infeasible", seed, p, name)
				}
				if opt.Makespan() > res.Makespan()+1e-9 {
					t.Fatalf("seed %d %v: optimum %g above %s's %g", seed, p, opt.Makespan(), name, res.Makespan())
				}
				compared++
			}
		}
	}
	if proven < 12 || compared < 30 {
		t.Fatalf("%d of 18 searches proven, %d heuristic results compared: the test is too thin", proven, compared)
	}
}
