package linalg

import (
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/multi"
)

func TestKernelTimesMatchTable1(t *testing.T) {
	// Table 1 of the paper (CPU side, ms).
	want := map[Kernel]float64{
		GETRF: 450, GEMM: 1450, TRSML: 990, TRSMU: 830, POTRF: 450, SYRK: 990,
	}
	for k, blue := range want {
		if KernelTimes[k].Blue != blue {
			t.Fatalf("blue time of %s = %g, want %g", k, KernelTimes[k].Blue, blue)
		}
	}
	// The synthetic GPU side must preserve the affinity contrast: update
	// kernels much faster on GPU, panel kernels slower.
	for _, k := range []Kernel{GEMM, SYRK, TRSML, TRSMU} {
		if KernelTimes[k].Red >= KernelTimes[k].Blue {
			t.Fatalf("update kernel %s not faster on GPU", k)
		}
	}
	for _, k := range []Kernel{GETRF, POTRF} {
		if KernelTimes[k].Red <= KernelTimes[k].Blue {
			t.Fatalf("panel kernel %s should be slower on GPU", k)
		}
	}
}

func countReal(g *dag.Graph) int {
	n := 0
	for i := 0; i < g.NumTasks(); i++ {
		if !g.Task(dag.TaskID(i)).IsFictitious() {
			n++
		}
	}
	return n
}

func TestLUKernelCounts(t *testing.T) {
	for n := 1; n <= 6; n++ {
		g, err := LU(DefaultConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got, want := countReal(g), LUKernelCount(n); got != want {
			t.Fatalf("n=%d: %d real kernels, want %d", n, got, want)
		}
	}
}

func TestCholeskyKernelCounts(t *testing.T) {
	for n := 1; n <= 6; n++ {
		g, err := Cholesky(DefaultConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got, want := countReal(g), CholeskyKernelCount(n); got != want {
			t.Fatalf("n=%d: %d real kernels, want %d", n, got, want)
		}
	}
}

func TestKernelCountFormulas(t *testing.T) {
	// n=3 LU: 3 getrf + 6 trsm + (4+1) gemm = 14.
	if got := LUKernelCount(3); got != 14 {
		t.Fatalf("LUKernelCount(3) = %d, want 14", got)
	}
	// n=3 Cholesky: 3 potrf + 3 trsm + 3 syrk + 1 gemm = 10.
	if got := CholeskyKernelCount(3); got != 10 {
		t.Fatalf("CholeskyKernelCount(3) = %d, want 10", got)
	}
}

func TestLUSingleSourceAndSink(t *testing.T) {
	g, _ := LU(DefaultConfig(4))
	src := g.Sources()
	if len(src) != 1 || !strings.HasPrefix(g.Task(src[0]).Name, "getrf(0)") {
		t.Fatalf("sources = %v", src)
	}
	sinks := g.Sinks()
	if len(sinks) != 1 || g.Task(sinks[0]).Name != "getrf(3)" {
		names := make([]string, len(sinks))
		for i, s := range sinks {
			names[i] = g.Task(s).Name
		}
		t.Fatalf("sinks = %v", names)
	}
}

func TestCholeskySingleSourceAndSink(t *testing.T) {
	g, _ := Cholesky(DefaultConfig(4))
	src := g.Sources()
	if len(src) != 1 || g.Task(src[0]).Name != "potrf(0)" {
		t.Fatalf("sources = %v", src)
	}
	sinks := g.Sinks()
	if len(sinks) != 1 || g.Task(sinks[0]).Name != "potrf(3)" {
		t.Fatalf("unexpected sinks")
	}
}

func TestPipelineBoundsOutDegree(t *testing.T) {
	// With broadcast pipelines every task forwards at most two files.
	for _, build := range []func(Config) (*dag.Graph, error){LU, Cholesky} {
		g, err := build(DefaultConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.NumTasks(); i++ {
			if d := len(g.Out(dag.TaskID(i))); d > 2 {
				t.Fatalf("task %s has out-degree %d", g.Task(dag.TaskID(i)).Name, d)
			}
		}
	}
}

func TestPipelineBoundsMemReq(t *testing.T) {
	// gemm holds 3 inputs + 1 output; nothing holds more than 4 tiles.
	g, _ := LU(DefaultConfig(6))
	for i := 0; i < g.NumTasks(); i++ {
		if mr := g.MemReq(dag.TaskID(i)); mr > 4 {
			t.Fatalf("task %s needs %d tiles", g.Task(dag.TaskID(i)).Name, mr)
		}
	}
}

func TestNoPipelineFansOutDirectly(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Pipeline = false
	g, err := LU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fict := g.NumTasks() - countReal(g); fict != 0 {
		t.Fatalf("no-pipeline graph has %d fictitious tasks", fict)
	}
	// getrf(0) now feeds all 2*(n-1) trsms directly.
	src := g.Sources()[0]
	if d := len(g.Out(src)); d != 8 {
		t.Fatalf("getrf(0) out-degree = %d, want 8", d)
	}
}

func TestPipelineMatchesPaperScale(t *testing.T) {
	// The paper quotes ~(4/3)n^3 nodes for LU and ~(2/3)n^3 for Cholesky
	// including fictitious tasks; our single-consumer pipelines land in
	// the same order of magnitude. Pin the exact counts for n=13 so any
	// construction change is noticed.
	lu, _ := LU(DefaultConfig(13))
	ch, _ := Cholesky(DefaultConfig(13))
	if lu.NumTasks() != 1941 {
		t.Fatalf("LU(13) has %d tasks (update the pinned count deliberately)", lu.NumTasks())
	}
	if ch.NumTasks() != 1005 {
		t.Fatalf("Cholesky(13) has %d tasks (update the pinned count deliberately)", ch.NumTasks())
	}
}

func TestGemmDependsOnBothTrsms(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Pipeline = false // direct edges make ancestry easy to check
	g, _ := LU(cfg)
	byName := map[string]dag.TaskID{}
	for i := 0; i < g.NumTasks(); i++ {
		byName[g.Task(dag.TaskID(i)).Name] = dag.TaskID(i)
	}
	gm, ok := byName["gemm(1,2,0)"]
	if !ok {
		t.Fatal("gemm(1,2,0) missing")
	}
	parents := map[dag.TaskID]bool{}
	for _, p := range g.Parents(gm) {
		parents[p] = true
	}
	if !parents[byName["trsm_l(1,0)"]] || !parents[byName["trsm_u(0,2)"]] {
		t.Fatal("gemm(1,2,0) missing a trsm parent")
	}
}

func TestOwnershipChains(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Pipeline = false
	g, _ := LU(cfg)
	byName := map[string]dag.TaskID{}
	for i := 0; i < g.NumTasks(); i++ {
		byName[g.Task(dag.TaskID(i)).Name] = dag.TaskID(i)
	}
	// gemm(1,1,0) -> getrf(1), gemm(2,2,0) -> gemm(2,2,1) -> getrf(2).
	for _, pair := range [][2]string{
		{"gemm(1,1,0)", "getrf(1)"},
		{"gemm(2,2,0)", "gemm(2,2,1)"},
		{"gemm(2,2,1)", "getrf(2)"},
		{"gemm(2,1,0)", "trsm_l(2,1)"},
		{"gemm(1,2,0)", "trsm_u(1,2)"},
	} {
		if _, ok := g.EdgeBetween(byName[pair[0]], byName[pair[1]]); !ok {
			t.Fatalf("missing ownership edge %s -> %s", pair[0], pair[1])
		}
	}
}

func TestCholeskyGemmDependencies(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Pipeline = false
	g, _ := Cholesky(cfg)
	byName := map[string]dag.TaskID{}
	for i := 0; i < g.NumTasks(); i++ {
		byName[g.Task(dag.TaskID(i)).Name] = dag.TaskID(i)
	}
	gm, ok := byName["gemm(3,2,0)"]
	if !ok {
		t.Fatal("gemm(3,2,0) missing")
	}
	parents := map[dag.TaskID]bool{}
	for _, p := range g.Parents(gm) {
		parents[p] = true
	}
	if !parents[byName["trsm(3,0)"]] || !parents[byName["trsm(2,0)"]] {
		t.Fatal("gemm(3,2,0) missing a trsm parent")
	}
	// syrk chain on the diagonal: syrk(2,0) -> syrk(2,1) -> potrf(2).
	for _, pair := range [][2]string{
		{"syrk(2,0)", "syrk(2,1)"},
		{"syrk(2,1)", "potrf(2)"},
	} {
		if _, ok := g.EdgeBetween(byName[pair[0]], byName[pair[1]]); !ok {
			t.Fatalf("missing edge %s -> %s", pair[0], pair[1])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := LU(Config{Tiles: 0, TileFile: 1}); err == nil {
		t.Fatal("Tiles=0 accepted")
	}
	if _, err := Cholesky(Config{Tiles: 3, TileFile: 0}); err == nil {
		t.Fatal("TileFile=0 accepted")
	}
	if _, err := LU(Config{Tiles: 3, TileFile: 1, TileComm: -1}); err == nil {
		t.Fatal("negative TileComm accepted")
	}
}

func TestTotalTiles(t *testing.T) {
	if TotalTiles("lu", 13) != 169 {
		t.Fatal("LU tiles wrong")
	}
	if TotalTiles("cholesky", 13) != 91 {
		t.Fatal("Cholesky tiles wrong")
	}
}

func TestTrivialOneTileFactorisations(t *testing.T) {
	lu, err := LU(DefaultConfig(1))
	if err != nil || lu.NumTasks() != 1 {
		t.Fatalf("LU(1): %v, %d tasks", err, lu.NumTasks())
	}
	ch, err := Cholesky(DefaultConfig(1))
	if err != nil || ch.NumTasks() != 1 {
		t.Fatalf("Cholesky(1): %v, %d tasks", err, ch.NumTasks())
	}
}

func TestSchedulableOnMiragePlatform(t *testing.T) {
	// End-to-end smoke test: a small factorisation schedules and
	// validates on the mirage-like platform (12 CPUs + 3 GPUs).
	for _, build := range []func(Config) (*dag.Graph, error){LU, Cholesky} {
		g, err := build(DefaultConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		in, p := multi.FromDual(g), multi.DualPlatform(12, 3, 60, 60)
		for name, run := range map[string]func() (*multi.Schedule, error){
			"heft": func() (*multi.Schedule, error) { return multi.MemHEFT(tctx, in, p.Unbounded(), multi.Options{Seed: 1}) },
			"minmin": func() (*multi.Schedule, error) {
				return multi.MemMinMin(tctx, in, p.Unbounded(), multi.Options{Seed: 1})
			},
			"memheft":           func() (*multi.Schedule, error) { return multi.MemHEFT(tctx, in, p, multi.Options{Seed: 1}) },
			"memminmin":         func() (*multi.Schedule, error) { return multi.MemMinMin(tctx, in, p, multi.Options{Seed: 1}) },
			"memheft-insertion": func() (*multi.Schedule, error) { return multi.MemHEFTInsertion(tctx, in, p, multi.Options{Seed: 1}) },
		} {
			s, err := run()
			if err != nil {
				t.Fatalf("%s failed on 5x5: %v", name, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s invalid on 5x5: %v", name, err)
			}
		}
	}
}
