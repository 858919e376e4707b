package multi

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
)

func dualPlatform(pBlue, pRed int, mBlue, mRed int64) Platform {
	return NewPlatform(Pool{pBlue, mBlue}, Pool{pRed, mRed})
}

func TestPlatformBasics(t *testing.T) {
	p := NewPlatform(Pool{2, 10}, Pool{1, 5}, Pool{3, 7})
	if p.NumPools() != 3 || p.TotalProcs() != 6 {
		t.Fatal("shape wrong")
	}
	if lo, hi := p.ProcRange(1); lo != 2 || hi != 3 {
		t.Fatalf("ProcRange(1) = [%d,%d)", lo, hi)
	}
	for proc, want := range []int{0, 0, 1, 2, 2, 2} {
		if got := p.PoolOf(proc); got != want {
			t.Fatalf("PoolOf(%d) = %d, want %d", proc, got, want)
		}
	}
	if p.PoolOf(99) != -1 {
		t.Fatal("out-of-range proc")
	}
}

func TestPlatformValidate(t *testing.T) {
	if err := NewPlatform().Validate(); err == nil {
		t.Fatal("empty platform accepted")
	}
	if err := NewPlatform(Pool{0, 5}).Validate(); err == nil {
		t.Fatal("zero-processor platform accepted")
	}
	if err := NewPlatform(Pool{1, -2}).Validate(); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := NewPlatform(Pool{1, 5}, Pool{0, 5}).Validate(); err != nil {
		t.Fatalf("valid platform rejected: %v", err)
	}
}

func TestInstanceValidate(t *testing.T) {
	g := dag.PaperExample()
	in := FromDual(g)
	if err := in.Validate(dualPlatform(1, 1, 5, 5)); err != nil {
		t.Fatal(err)
	}
	// Wrong column count.
	if err := in.Validate(NewPlatform(Pool{1, 5})); err == nil {
		t.Fatal("column mismatch accepted")
	}
	bad := NewInstance(g, [][]float64{{1, 1}})
	if err := bad.Validate(dualPlatform(1, 1, 5, 5)); err == nil {
		t.Fatal("row mismatch accepted")
	}
	neg := FromDual(g)
	neg.Times[0][0] = -1
	if err := neg.Validate(dualPlatform(1, 1, 5, 5)); err == nil {
		t.Fatal("negative time accepted")
	}
	// ValidateMatrix checks the matrix at the width of its first row.
	if err := FromDual(g).ValidateMatrix(); err != nil {
		t.Fatal(err)
	}
	ragged := FromDual(g)
	ragged.Times[1] = ragged.Times[1][:1]
	if err := ragged.ValidateMatrix(); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if err := neg.ValidateMatrix(); err == nil {
		t.Fatal("negative time accepted")
	}
	// The totals bound of dag.Graph.Validate, over the matrix: the largest
	// time of every task plus every comm must sum to a finite value.
	for name, times := range map[string][][]float64{
		"two slowest":  {{1e308, 1}, {1e308, 1}, {1, 1}, {1, 1}},
		"NaN":          {{math.NaN(), 1}, {1, 1}, {1, 1}, {1, 1}},
		"three pools":  {{1, 1, 1e308}, {1, 1, 1}, {1, 1e308, 1}, {1, 1, 1}},
		"one infinite": {{1, math.Inf(1)}, {1, 1}, {1, 1}, {1, 1}},
	} {
		if err := NewInstance(g, times).ValidateMatrix(); err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Fatalf("%s: ValidateMatrix = %v, want the finite-sum error", name, err)
		}
	}
	if err := NewInstance(g, [][]float64{{1e308, 1}, {1, 1}, {1, 1}, {1, 1}}).ValidateMatrix(); err != nil {
		t.Fatalf("a finite total rejected: %v", err)
	}
}

// TestEmptyGraphSchedulesOnAnyPoolCount schedules a graph without tasks:
// its matrix has no first row to take a width from, and it fits every
// platform, whatever the pool count.
func TestEmptyGraphSchedulesOnAnyPoolCount(t *testing.T) {
	in := FromDual(dag.New())
	for k := 1; k <= 3; k++ {
		pools := make([]Pool, k)
		for i := range pools {
			pools[i] = Pool{1, 0}
		}
		for name, fn := range map[string]Func{"memheft": MemHEFT, "memminmin": MemMinMin} {
			s, err := fn(tctx, in, NewPlatform(pools...), Options{})
			if err != nil {
				t.Fatalf("%s on %d pools: %v", name, k, err)
			}
			if s.Makespan() != 0 {
				t.Fatalf("%s on %d pools: makespan %g", name, k, s.Makespan())
			}
		}
	}
}

func TestMeanRanksMatchDualRanks(t *testing.T) {
	g := dag.PaperExample()
	in := FromDual(g)
	mr, err := in.MeanRanks(nil)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := g.UpwardRanks(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mr {
		if mr[i] != ur[i] {
			t.Fatalf("rank[%d]: %g vs %g", i, mr[i], ur[i])
		}
	}
}

// TestTwoPoolMatchesCore is the key differential test: with two pools the
// generalised heuristics must reproduce the dual-memory implementation's
// placements exactly.
func TestTwoPoolMatchesCore(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 18)
		in := FromDual(g)
		for _, bound := range []int64{30, 60, 1 << 40} {
			dp := platform.New(2, 2, bound, bound)
			mp := dualPlatform(2, 2, bound, bound)
			pairs := []struct {
				dual  core.Func
				multi Func
			}{
				{core.MemHEFT, MemHEFT},
				{core.MemMinMin, MemMinMin},
			}
			for _, pair := range pairs {
				ds, derr := pair.dual(tctx, g, dp, core.Options{Seed: seed})
				ms, merr := pair.multi(tctx, in, mp, Options{Seed: seed})
				if (derr == nil) != (merr == nil) {
					return false
				}
				if derr != nil {
					continue
				}
				for i := 0; i < g.NumTasks(); i++ {
					if ds.Tasks[i].Start != ms.Tasks[i].Start || ds.Tasks[i].Proc != ms.Tasks[i].Proc {
						return false
					}
				}
				// The communication schedules must collapse too:
				// same ALAP starts on cross edges, same NaN
				// markers on intra-pool edges.
				for e := 0; e < g.NumEdges(); e++ {
					dc, mc := ds.CommStart[e], ms.CommStart[e]
					if dc != mc && !(math.IsNaN(dc) && math.IsNaN(mc)) {
						return false
					}
				}
				if ms.Validate() != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoPoolMatchesCoreViaDualBridge checks the platform bridge both
// directions: FromDualPlatform followed by Dual round-trips, and the
// generalised engine on the lifted platform reproduces the dual engine.
func TestTwoPoolMatchesCoreViaDualBridge(t *testing.T) {
	g := dag.PaperExample()
	dp := platform.New(1, 1, 4, 4)
	mp := FromDualPlatform(dp)
	back, ok := mp.Dual()
	if !ok || back != dp {
		t.Fatalf("round trip lost the platform: %v -> %v (ok=%v)", dp, back, ok)
	}
	if _, ok := NewPlatform(Pool{1, 4}).Dual(); ok {
		t.Fatal("1-pool platform claimed to be dual")
	}
	ds, err := core.MemHEFT(tctx, g, dp, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MemHEFT(tctx, FromDual(g), mp, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Tasks {
		if ds.Tasks[i].Start != ms.Tasks[i].Start || ds.Tasks[i].Proc != ms.Tasks[i].Proc {
			t.Fatalf("task %d: dual %+v vs lifted %+v", i, ds.Tasks[i], ms.Tasks[i])
		}
	}
}

func TestThreePoolPrefersSpecialisedAccelerators(t *testing.T) {
	// Two task flavours: "fft" fast on pool 1, "dense" fast on pool 2;
	// pool 0 is a slow CPU. Each flavour should land on its accelerator.
	g := dag.New()
	src := g.AddTask("src", 1, 0)
	fft := g.AddTask("fft", 0, 0)
	dense := g.AddTask("dense", 0, 0)
	sink := g.AddTask("sink", 1, 0)
	g.MustAddEdge(src, fft, 1, 1)
	g.MustAddEdge(src, dense, 1, 1)
	g.MustAddEdge(fft, sink, 1, 1)
	g.MustAddEdge(dense, sink, 1, 1)
	times := [][]float64{
		{1, 5, 5},   // src: cpu
		{20, 2, 20}, // fft: pool 1
		{20, 20, 2}, // dense: pool 2
		{1, 5, 5},   // sink: cpu
	}
	in := NewInstance(g, times)
	p := NewPlatform(Pool{2, 100}, Pool{1, 100}, Pool{1, 100})
	for _, fn := range []Func{MemHEFT, MemMinMin} {
		s, err := fn(tctx, in, p, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.PoolOf(fft) != 1 {
			t.Fatalf("fft on pool %d, want 1", s.PoolOf(fft))
		}
		if s.PoolOf(dense) != 2 {
			t.Fatalf("dense on pool %d, want 2", s.PoolOf(dense))
		}
	}
}

func TestThreePoolMemoryBoundsRespected(t *testing.T) {
	f := func(seed int64, rawBound uint8) bool {
		g := randomDAG(seed, 14)
		bound := int64(rawBound%60) + 8
		rng := rand.New(rand.NewSource(seed))
		times := make([][]float64, g.NumTasks())
		for i := range times {
			times[i] = []float64{
				float64(rng.Intn(10) + 1),
				float64(rng.Intn(10) + 1),
				float64(rng.Intn(10) + 1),
			}
		}
		in := NewInstance(g, times)
		p := NewPlatform(Pool{1, bound}, Pool{1, bound}, Pool{1, bound})
		for _, fn := range []Func{MemHEFT, MemMinMin} {
			s, err := fn(tctx, in, p, Options{Seed: seed})
			if err != nil {
				if !errors.Is(err, ErrMemoryBound) {
					return false
				}
				continue
			}
			if s.Validate() != nil {
				return false
			}
			for _, peak := range s.MemoryPeaks() {
				if peak > bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMoreMemoriesCanBeatTwo(t *testing.T) {
	// A wide fork of big-file tasks: with the same total memory split
	// over more pools, the heuristics can spread files and keep more
	// parallelism. At minimum, the 3-pool run must schedule a graph the
	// 2-pool run cannot.
	g := dag.ForkJoin(6, 2, 2, 4, 1)
	in2 := FromDual(g)
	// 3-pool instance: same times everywhere.
	times := make([][]float64, g.NumTasks())
	for i := range times {
		times[i] = []float64{2, 2, 2}
	}
	in3 := NewInstance(g, times)

	p2 := dualPlatform(1, 1, 24, 24)
	_, err2 := MemHEFT(tctx, in2, p2, Options{Seed: 1})
	p3 := NewPlatform(Pool{1, 24}, Pool{1, 24}, Pool{1, 24})
	s3, err3 := MemHEFT(tctx, in3, p3, Options{Seed: 1})
	if err3 != nil {
		t.Fatalf("3-pool run failed: %v", err3)
	}
	if err := s3.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = err2 // the 2-pool run may or may not fit; the 3-pool one must
}

func TestScheduleAccessors(t *testing.T) {
	g := dag.PaperExample()
	in := FromDual(g)
	p := dualPlatform(1, 1, 100, 100)
	s, err := MemMinMin(tctx, in, p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() <= 0 {
		t.Fatal("bad makespan")
	}
	peaks := s.MemoryPeaks()
	if len(peaks) != 2 {
		t.Fatal("peak count")
	}
	if s.Duration(0) <= 0 && s.Duration(1) <= 0 {
		t.Fatal("durations")
	}
}

func TestHeuristicsFailCleanlyOnTinyMemory(t *testing.T) {
	g := dag.PaperExample()
	in := FromDual(g)
	p := dualPlatform(1, 1, 2, 2)
	if _, err := MemHEFT(tctx, in, p, Options{}); !errors.Is(err, ErrMemoryBound) {
		t.Fatalf("MemHEFT err = %v", err)
	}
	if _, err := MemMinMin(tctx, in, p, Options{}); !errors.Is(err, ErrMemoryBound) {
		t.Fatalf("MemMinMin err = %v", err)
	}
}

// randomDAG builds a seeded random DAG (same family as core's tests).
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
