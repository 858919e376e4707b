package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/multi"
	"repro/internal/platform"
)

// buildChain returns a fresh 3-task chain graph.
func buildChain(extra bool) *dag.Graph {
	g := dag.New()
	a := g.AddTask("a", 2, 1)
	b := g.AddTask("b", 1, 2)
	c := g.AddTask("c", 3, 3)
	g.MustAddEdge(a, b, 2, 1)
	g.MustAddEdge(b, c, 1, 1)
	if extra {
		d := g.AddTask("d", 5, 5)
		g.MustAddEdge(a, d, 1, 1)
	}
	return g
}

// TestCachesPriorityListInvalidation checks that the per-session
// (instance, seed) memo is a pure cache: repeated calls return equal fresh
// slices, mutating the returned slice is safe, a different seed misses, and
// growing the graph after a hit invalidates the entry.
func TestCachesPriorityListInvalidation(t *testing.T) {
	g := buildChain(false)
	c := multi.NewCaches()
	l1, err := c.PriorityList(nil, instanceOf(g), 7)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := c.PriorityList(nil, instanceOf(g), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(l1, l2) {
		t.Fatalf("cached list %v differs from first %v", l2, l1)
	}
	// The returned slice must be caller-owned.
	l2[0], l2[len(l2)-1] = l2[len(l2)-1], l2[0]
	l3, err := c.PriorityList(nil, instanceOf(g), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(l3, l1) {
		t.Fatalf("mutating a returned list corrupted the cache: %v, want %v", l3, l1)
	}
	// Grow the graph: the memo must miss and reflect the new task.
	g.AddTask("late", 1, 1)
	l4, err := c.PriorityList(nil, instanceOf(g), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(l4) != g.NumTasks() {
		t.Fatalf("stale cache after graph growth: %d tasks listed, graph has %d", len(l4), g.NumTasks())
	}
	// Different seed on the same graph: must recompute, and match the
	// pure computation on a fresh identical graph.
	fresh := buildChain(false)
	fresh.AddTask("late", 1, 1)
	lf, err := PriorityList(nil, fresh, 13)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := c.PriorityList(nil, instanceOf(g), 13)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lf, lg) {
		t.Fatalf("seed switch returned stale list %v, want %v", lg, lf)
	}
}

// TestCachesPriorityListBounded drives far more seeds through one memo than
// it keeps: evicted seeds must recompute to the same lists, never serve
// another seed's.
func TestCachesPriorityListBounded(t *testing.T) {
	g := randomDAG(8, 12)
	in := instanceOf(g)
	c := multi.NewCaches()
	const seeds = 256
	for round := 0; round < 2; round++ {
		for seed := int64(0); seed < seeds; seed++ {
			got, err := c.PriorityList(nil, in, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := PriorityList(nil, g, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d seed %d: memo served %v, want %v", round, seed, got, want)
			}
		}
	}
}

// TestCachesStaticsInvalidation checks that the memoized per-instance inputs
// of NewPartialCached track graph growth.
func TestCachesStaticsInvalidation(t *testing.T) {
	g := buildChain(false)
	c := multi.NewCaches()
	// Capacity 2 holds task 0's outputs (2) exactly, but not 3.
	p := multi.FromDualPlatform(platform.New(1, 1, 2, 2))
	st := multi.NewPartialCached(instanceOf(g), p, c)
	if got := len(st.ReadyTasks()); got != 1 {
		t.Fatalf("chain has %d sources, want 1", got)
	}
	if !st.Evaluate(0, blue).Feasible() {
		t.Fatal("task 0's 2 output units do not fit a capacity of 2")
	}
	// Add a second edge out of task 0: its outputs grow to 3.
	g = buildChain(true)
	st2 := multi.NewPartialCached(instanceOf(g), p, c)
	if st2.Evaluate(0, blue).Feasible() {
		t.Fatal("stale statics: task 0 still fits after its outputs grew to 3")
	}
	// Add a new source: the ready set must see it.
	g.AddTask("src2", 4, 4)
	st3 := multi.NewPartialCached(instanceOf(g), p, c)
	if got := len(st3.ReadyTasks()); got != 2 {
		t.Fatalf("after adding a source, %d ready tasks, want 2", got)
	}
	// Validate: a valid graph caches success; a new graph revalidates.
	if err := c.Validate(instanceOf(g), 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(instanceOf(g), 2); err != nil {
		t.Fatal(err)
	}
	bad := dag.New()
	bad.AddTask("x", -1, 1)
	if err := c.Validate(instanceOf(bad), 2); err == nil {
		t.Fatal("negative processing time not rejected through the cache")
	}
}

// TestNilCachesComputeFresh checks the nil-receiver path every one-shot
// caller takes: no cache, same results.
func TestNilCachesComputeFresh(t *testing.T) {
	g := buildChain(true)
	var c *multi.Caches
	list, err := c.PriorityList(nil, instanceOf(g), 3)
	if err != nil {
		t.Fatal(err)
	}
	pure, err := PriorityList(nil, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(list, pure) {
		t.Fatalf("nil-cache list %v, want %v", list, pure)
	}
	if err := c.Validate(instanceOf(g), 2); err != nil {
		t.Fatal(err)
	}
	if multi.NewPartialCached(instanceOf(g), multi.FromDualPlatform(platform.New(1, 1, 10, 10)), nil) == nil {
		t.Fatal("nil-cache NewPartialCached failed")
	}
}

// TestCachesConcurrentSameGraph hammers one cache set from many goroutines
// (the session concurrency contract); run with -race.
func TestCachesConcurrentSameGraph(t *testing.T) {
	g := buildChain(true)
	in := instanceOf(g)
	c := multi.NewCaches()
	want, err := PriorityList(nil, g, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := multi.FromDualPlatform(platform.New(2, 1, 50, 50))
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.Validate(in, 2); err != nil {
					errs <- err
					return
				}
				list, err := c.PriorityList(nil, in, 5)
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(list, want) {
					t.Errorf("goroutine saw list %v, want %v", list, want)
					return
				}
				_ = multi.NewPartialCached(in, p, c)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
