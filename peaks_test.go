package memsched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/daggen"
	"repro/internal/multi"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// TestMemoryPeaksIndependentOfEdgeOrder pins the tie rule of MemoryPeaks on
// a schedule whose event times sit within Eps of each other. Producers
// (tasks 0-2) each feed one consumer (tasks 3-5), every task on its own
// blue processor. Task 0 starts at 0 and its 4-unit file is freed when task
// 3 finishes at 1.2e-9; task 2 starts at 0 with 5 units and task 1 at
// 0.6e-9 with 3, both held to t=2. At t=0 all three files are acquired by
// t+Eps and none is released by then, so the live rule gives a blue peak
// of 12 whatever order the edges were added in, on the dual and the 2-pool
// schedule alike. A comparator that orders events within Eps by their
// sign instead is not a strict weak ordering, and reported 12, 9 or 8
// here depending on the edge order alone.
func TestMemoryPeaksIndependentOfEdgeOrder(t *testing.T) {
	type file struct {
		from, to dag.TaskID
		size     int64
	}
	files := []file{{0, 3, 4}, {1, 4, 3}, {2, 5, 5}}
	work := []float64{0, 0, 0, 1.2e-9, 1, 1}
	starts := []float64{0, 0.6e-9, 0, 0, 1, 1}
	p := platform.New(len(work), 0, Unlimited, Unlimited)
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		g := dag.New()
		for i, w := range work {
			g.AddTask(fmt.Sprint("t", i), w, w)
		}
		for _, k := range order {
			g.MustAddEdge(files[k].from, files[k].to, files[k].size, 1)
		}
		s := schedule.New(g, p)
		ms := multi.NewSchedule(multi.FromDual(g), multi.FromDualPlatform(p))
		for i, st := range starts {
			s.Tasks[i] = schedule.TaskPlacement{Start: st, Proc: i}
			ms.Tasks[i] = multi.Placement{Start: st, Proc: i}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("edge order %v: %v", order, err)
		}
		if err := ms.Validate(); err != nil {
			t.Fatalf("edge order %v: 2-pool: %v", order, err)
		}
		if u := s.UsageAt(platform.Blue, 0); u != 12 {
			t.Fatalf("edge order %v: blue usage at 0 = %d, want 12", order, u)
		}
		if blue, red := s.MemoryPeaks(); blue != 12 || red != 0 {
			t.Errorf("edge order %v: dual peaks = (%d,%d), want (12,0)", order, blue, red)
		}
		if got := ms.MemoryPeaks(); !slices.Equal(got, []int64{12, 0}) {
			t.Errorf("edge order %v: 2-pool peaks = %v, want [12 0]", order, got)
		}
	}
}

// TestPeaksAreTightWithNeverLiveResidency checks that the peaks are the
// tightest capacities Validate accepts on a valid schedule holding a
// residency that ends before it starts. Every task has its own blue
// processor. Task 0 (start 0, no work) holds 5 units until task 1 finishes
// at 1.6e-9; task 2 (start 1.2e-9, no work) holds 3 until task 3 finishes
// after 1; task 4 starts at 0.5e-9 and feeds 1 unit to task 5, which
// finishes at 0 — within Eps before, so precedence holds — leaving the
// residency [0.5e-9, 0), which is never Live. Files are acquired at 0
// (usage 5) and at 1.2e-9 (usage 3, the 5 being freed by then), so the
// peak is 5, and Validate must accept a capacity of 5 on the dual and the
// 2-pool schedule alike, although usage at 0.5e-9, no acquisition instant,
// is 8.
func TestPeaksAreTightWithNeverLiveResidency(t *testing.T) {
	work := []float64{0, 1.6e-9, 0, 1, 0, 0}
	starts := []float64{0, 0, 1.2e-9, 1.2e-9, 0.5e-9, 0}
	g := dag.New()
	for i, w := range work {
		g.AddTask(fmt.Sprint("t", i), w, w)
	}
	g.MustAddEdge(0, 1, 5, 1)
	g.MustAddEdge(2, 3, 3, 1)
	g.MustAddEdge(4, 5, 1, 1)
	at := func(capacity int64) (*schedule.Schedule, *PoolSchedule) {
		p := platform.New(len(work), 0, capacity, 0)
		s := schedule.New(g, p)
		ms := multi.NewSchedule(multi.FromDual(g), multi.FromDualPlatform(p))
		for i, st := range starts {
			s.Tasks[i] = schedule.TaskPlacement{Start: st, Proc: i}
			ms.Tasks[i] = multi.Placement{Start: st, Proc: i}
		}
		return s, ms
	}
	s, ms := at(5)
	if u := s.UsageAt(platform.Blue, 0.5e-9); u != 8 {
		t.Fatalf("blue usage at 0.5e-9 = %d, want 8", u)
	}
	if blue, red := s.MemoryPeaks(); blue != 5 || red != 0 {
		t.Fatalf("dual peaks = (%d,%d), want (5,0)", blue, red)
	}
	if got := ms.MemoryPeaks(); !slices.Equal(got, []int64{5, 0}) {
		t.Fatalf("2-pool peaks = %v, want [5 0]", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("dual rejected at its peak: %v", err)
	}
	if err := ms.Validate(); err != nil {
		t.Fatalf("2-pool rejected at its peak: %v", err)
	}
	s, ms = at(4)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "over capacity") {
		t.Fatalf("dual at capacity 4: Validate = %v", err)
	}
	if err := ms.Validate(); err == nil || !strings.Contains(err.Error(), "over capacity") {
		t.Fatalf("2-pool at capacity 4: Validate = %v", err)
	}
}

// TestMemoryPeaksMatchLiveRule is the property test of the peak sweep over
// every schedule producer: the four list schedulers, the insertion policy,
// descending-capacity warm-start chains (replayed and margin-shortcut
// results), Simulate and Optimal, on daggen graphs and the paper's example,
// dual and k ∈ {3, 4} pool-time sessions, unbounded and at α times the HEFT
// peak. On every result MemoryPeaks (and
// the result's possibly carried-over PeakResidency) equals the quadratic
// live-rule oracle, bounded peaks fit their capacities, and the peaks are
// the tightest capacities Validate accepts.
func TestMemoryPeaksMatchLiveRule(t *testing.T) {
	ctx := context.Background()
	graphs := []*dag.Graph{dag.PaperExample()}
	for i, size := range []int{8, 40, 90, 200} {
		params := daggen.SmallParams()
		params.Size = size
		g, err := daggen.Generate(params, int64(31+i))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	alphas := []float64{1, 0.8, 0.65, 0.5} // descending: warm chains replay
	var checked, replayed int
	check := func(label string, res *Result, err error) {
		t.Helper()
		if errors.Is(err, ErrMemoryBound) || errors.Is(err, ErrSimStuck) {
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checked++
		if res.Stats.ReplayedPlacements > 0 {
			replayed++
		}
		if res.Pools != nil { // nil: Optimal proved infeasibility
			checkPoolPeaks(t, label, res.Pools, res.PeakResidency())
		}
	}
	for gi, g := range graphs {
		for _, k := range []int{2, 3, 4} {
			var opts []SessionOption
			pools := []Pool{{Procs: 2, Capacity: Unlimited}}
			for j := 1; j < k; j++ {
				pools = append(pools, Pool{Procs: 1, Capacity: Unlimited})
			}
			if k > 2 {
				opts = append(opts, WithPoolTimes(poolTimes(g, k)))
			}
			sess, err := NewSession(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			unbounded := NewPlatform(pools...)
			ref, err := sess.Schedule(ctx, unbounded, WithScheduler("heft"))
			if err != nil {
				t.Fatal(err)
			}
			platforms := []Platform{unbounded}
			for _, a := range alphas {
				platforms = append(platforms, unbounded.WithUniformBounds(int64(a*float64(slices.Max(ref.PeakResidency())))))
			}
			for _, name := range []string{"memheft", "memminmin", "heft", "minmin"} {
				chain := sess.Fork()
				for _, p := range platforms {
					label := fmt.Sprintf("graph %d k=%d %s %v", gi, k, name, p)
					res, err := sess.Schedule(ctx, p, WithScheduler(name), WithSeed(int64(gi)))
					check(label, res, err)
					res, err = chain.Schedule(ctx, p, WithScheduler(name), WithSeed(int64(gi)), WithWarmStart(true))
					check(label+" warm", res, err)
				}
			}
			for _, p := range platforms {
				label := fmt.Sprintf("graph %d k=%d %v", gi, k, p)
				res, err := sess.Schedule(ctx, p, WithInsertion())
				check(label+" insertion", res, err)
				res, err = sess.Simulate(ctx, p, WithSeed(int64(gi)))
				check(label+" simulate", res, err)
				if g.NumTasks() <= 8 {
					res, err = sess.Optimal(ctx, p, WithMaxNodes(20000))
					check(label+" optimal", res, err)
				}
			}
		}
	}
	t.Logf("%d results checked, %d of them replayed", checked, replayed)
	if checked < 300 || replayed < 50 {
		t.Fatal("property test too thin")
	}
}

// poolTimes is a k-pool timing matrix for g: pool 0 runs at the blue time,
// pool j > 0 at the red time slowed by 20% per pool.
func poolTimes(g *dag.Graph, k int) [][]float64 {
	times := make([][]float64, g.NumTasks())
	for i := range times {
		task := g.Task(dag.TaskID(i))
		times[i] = []float64{task.WBlue}
		for j := 1; j < k; j++ {
			times[i] = append(times[i], task.WRed*(1+0.2*float64(j-1)))
		}
	}
	return times
}

// checkPoolPeaks runs the property checks on a k-pool schedule.
func checkPoolPeaks(t *testing.T, label string, s *PoolSchedule, carried []int64) {
	t.Helper()
	got := s.MemoryPeaks()
	want := livePeaks(t, label, s.Inst.G, s.Platform.NumPools(), s.PoolOf,
		func(id dag.TaskID) float64 { return s.Tasks[id].Start }, s.Finish, s.CommStart)
	if !slices.Equal(got, want) || !slices.Equal(carried, want) {
		t.Fatalf("%s: MemoryPeaks %v, PeakResidency %v, live-rule oracle %v", label, got, carried, want)
	}
	for k, peak := range got {
		if c := s.Platform.Capacity(k); peak > c {
			t.Fatalf("%s: pool %d peak %d over capacity %d", label, k, peak, c)
		}
	}
	tight := s.Clone()
	tight.Platform = atCapacities(s.Platform, got)
	if err := tight.Validate(); err != nil {
		t.Fatalf("%s: rejected at its own peaks: %v", label, err)
	}
	for k := range got {
		if got[k] == 0 {
			continue
		}
		bounds := slices.Clone(got)
		bounds[k]--
		tight.Platform = atCapacities(s.Platform, bounds)
		if err := tight.Validate(); err == nil || !strings.Contains(err.Error(), "over capacity") {
			t.Fatalf("%s: pool %d capacity %d below the peak: Validate = %v", label, k, bounds[k], err)
		}
	}
}

// atCapacities returns p with pool k's capacity set to caps[k].
func atCapacities(p Platform, caps []int64) Platform {
	pools := slices.Clone(p.Pools)
	for k := range pools {
		pools[k].Capacity = caps[k]
	}
	return NewPlatform(pools...)
}

// livePeaks is the definitional oracle of MemoryPeaks. It expands a
// schedule into the file residencies of §3.2 — an intra-pool edge holds its
// file on the producer's pool from the producer's start to the consumer's
// finish; a cross edge holds it on the producer's pool until its transfer
// completes at tau+Comm and on the consumer's pool from tau to the
// consumer's finish — and returns, per pool, the largest sum of residencies
// Live at an instant where one opens. Every residency of a produced
// schedule must have from <= to, which the folded sweep relies on.
func livePeaks(t *testing.T, label string, g *dag.Graph, pools int, pool func(dag.TaskID) int,
	start, finish func(dag.TaskID) float64, commStart []float64) []int64 {
	t.Helper()
	type residency struct {
		from, to float64
		size     int64
	}
	byPool := make([][]residency, pools)
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(dag.EdgeID(e))
		if edge.File == 0 {
			continue
		}
		src, dst := pool(edge.From), pool(edge.To)
		if src == dst {
			byPool[src] = append(byPool[src], residency{start(edge.From), finish(edge.To), edge.File})
			continue
		}
		tau := commStart[e]
		byPool[src] = append(byPool[src], residency{start(edge.From), tau + edge.Comm, edge.File})
		byPool[dst] = append(byPool[dst], residency{tau, finish(edge.To), edge.File})
	}
	peaks := make([]int64, pools)
	for k, rs := range byPool {
		for _, r := range rs {
			if !(r.from <= r.to) {
				t.Fatalf("%s: pool %d residency [%g, %g) ends before it starts", label, k, r.from, r.to)
			}
			var usage int64
			for _, o := range rs {
				if schedule.Live(o.from, o.to, r.from) {
					usage += o.size
				}
			}
			peaks[k] = max(peaks[k], usage)
		}
	}
	return peaks
}
