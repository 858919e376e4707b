package multi

import (
	"sync"
	"testing"

	"repro/internal/dag"
)

// TestCachesValidateMemoized: the second Validate of the same (instance,
// width) must be served from the memo, and a width change must revalidate.
func TestCachesValidateMemoized(t *testing.T) {
	in := randomInstance(1, 12, 3)
	p := NewPlatform(Pool{1, 50}, Pool{1, 50}, Pool{1, 50})
	c := NewCaches()
	if err := c.Validate(in, p.NumPools()); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(in, p.NumPools()); err != nil {
		t.Fatal(err)
	}
	// A platform with the wrong pool count must still be rejected even
	// though the instance was validated for width 3.
	if err := c.Validate(in, 1); err == nil {
		t.Fatal("width mismatch accepted after memoized validation")
	}
	// And width 3 must keep validating after the failed width-1 attempt.
	if err := c.Validate(in, p.NumPools()); err != nil {
		t.Fatal(err)
	}
}

// TestCachesRanksAndPriorityMemoized: mean ranks are computed once per
// instance and reused across seeds; priority lists are memoized per seed
// and returned as independent copies.
func TestCachesRanksAndPriorityMemoized(t *testing.T) {
	in := randomInstance(2, 20, 2)
	c := NewCaches()
	r1, err := c.MeanRanks(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.MeanRanks(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if &r1[0] != &r2[0] {
		t.Fatal("mean ranks recomputed on the warm call")
	}
	want, err := PriorityList(nil, in, 7)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := c.PriorityList(nil, in, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if l1[i] != want[i] {
			t.Fatalf("cached list diverges at %d: %v vs %v", i, l1, want)
		}
	}
	// The returned copy must be caller-mutable without poisoning the memo.
	l1[0], l1[len(l1)-1] = l1[len(l1)-1], l1[0]
	l2, err := c.PriorityList(nil, in, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if l2[i] != want[i] {
			t.Fatalf("memo poisoned by caller mutation at %d", i)
		}
	}
}

// TestCachesRekeyOnGraphGrowth: appending to the graph must invalidate
// statics, ranks and priority memos.
func TestCachesRekeyOnGraphGrowth(t *testing.T) {
	g := dag.New()
	a := g.AddTask("a", 1, 1)
	b := g.AddTask("b", 1, 1)
	g.MustAddEdge(a, b, 1, 1)
	in := NewInstance(g, [][]float64{{1, 1}, {1, 1}})
	c := NewCaches()
	gs := c.staticsOf(in)
	if len(gs.inDegree) != 2 || gs.inDegree[b] != 1 || gs.maxComm != 1 {
		t.Fatalf("statics: in-degrees %v, max comm %g", gs.inDegree, gs.maxComm)
	}
	// Grow the graph (and matrix) and expect fresh statics.
	cTask := g.AddTask("c", 1, 1)
	g.MustAddEdge(a, cTask, 1, 3)
	in.Times = append(in.Times, []float64{1, 1})
	gs2 := c.staticsOf(in)
	if gs2 == gs {
		t.Fatal("statics not rekeyed after graph growth")
	}
	if len(gs2.inDegree) != 3 || gs2.maxComm != 3 {
		t.Fatalf("stale statics: in-degrees %v, max comm %g", gs2.inDegree, gs2.maxComm)
	}
}

// TestCachesNilReceiver: every method must tolerate a nil cache set.
func TestCachesNilReceiver(t *testing.T) {
	var c *Caches
	in := randomInstance(3, 10, 2)
	p := NewPlatform(Pool{1, 100}, Pool{1, 100})
	if err := c.Validate(in, p.NumPools()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MeanRanks(nil, in); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PriorityList(nil, in, 1); err != nil {
		t.Fatal(err)
	}
	st := NewPartialCached(in, p, nil)
	if st == nil || len(st.ReadyTasks()) == 0 {
		t.Fatal("nil-cache partial unusable")
	}
	recycle(st) // must not panic
}

// TestRecycleDropsRunReferences: a recycled Partial sits in a process-wide
// pool, so it must not keep the finished run's graph, instance, platform or
// schedule reachable.
func TestRecycleDropsRunReferences(t *testing.T) {
	in := randomInstance(5, 10, 2)
	st := NewPartial(in, NewPlatform(Pool{1, 100}, Pool{1, 100}))
	st.ins = newInsertionState(2)
	recycle(st)
	if st.in != nil || st.g != nil || st.edges != nil || st.p.Pools != nil ||
		st.sched != nil || st.outFiles != nil || st.ins != nil {
		t.Fatalf("recycled partial still references its run: %+v", st)
	}
}

// TestCachesConcurrentSchedules hammers one cache set from many goroutines
// (run under -race): the memos and the recycled-partial pool must be safe,
// and every schedule identical to the reference.
func TestCachesConcurrentSchedules(t *testing.T) {
	in := randomInstance(4, 30, 3)
	total := totalFiles(in)
	p := NewPlatform(Pool{2, total}, Pool{1, total}, Pool{1, total})
	want, err := MemHEFTReference(tctx, in, p, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCaches()
	const goroutines, iters = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s, err := MemHEFT(tctx, in, p, Options{Seed: 4, Caches: c})
				if err != nil {
					t.Errorf("concurrent schedule: %v", err)
					return
				}
				for j := range want.Tasks {
					if s.Tasks[j] != want.Tasks[j] {
						t.Errorf("task %d placed %+v, want %+v", j, s.Tasks[j], want.Tasks[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
