package experiments

import (
	"context"
	"time"

	memsched "repro"
	"repro/internal/dag"
	"repro/internal/daggen"
	"repro/internal/linalg"
)

// Scale selects the cost of an experiment run.
type Scale int

// Scales. Full reproduces the paper's parameters exactly; Quick shrinks the
// instance counts and sizes so the whole campaign runs in seconds (used by
// tests and benchmarks — the qualitative shapes survive the reduction).
const (
	Quick Scale = iota
	Full
)

// RandomPlatform is the platform used for the random-DAG experiments. The
// paper does not state processor counts for those sets; two processors per
// memory is the smallest platform exhibiting all effects (see DESIGN.md).
func RandomPlatform() memsched.Platform { return memsched.NewDualPlatform(2, 2, 0, 0) }

// MiragePlatform models the mirage machine of §6.1.2: 12 CPU cores (blue)
// and 3 GPUs (red).
func MiragePlatform() memsched.Platform { return memsched.NewDualPlatform(12, 3, 0, 0) }

// Table1 returns the kernel timing table (Table 1 of the paper plus the
// synthetic accelerator column used throughout, cf. DESIGN.md).
func Table1() *Table {
	t := &Table{Name: "Table 1", XLabel: "kernel-index", Columns: []string{"cpu-ms", "gpu-ms"}}
	order := []linalg.Kernel{linalg.GETRF, linalg.GEMM, linalg.TRSML, linalg.TRSMU, linalg.POTRF, linalg.SYRK}
	for i, k := range order {
		kt := linalg.KernelTimes[k]
		t.AddRow(float64(i), kt.Blue, kt.Red)
	}
	return t
}

// Table1Kernels lists the kernel names in the same order as Table1 rows.
func Table1Kernels() []string {
	return []string{"getrf", "gemm", "trsm_l", "trsm_u", "potrf", "syrk"}
}

// Fig10 reproduces Figure 10: SmallRandSet, normalised makespan and success
// rate for MemHEFT, MemMinMin and the exact-search reference.
func Fig10(ctx context.Context, scale Scale, seed int64) (*SweepResult, error) {
	count := 50
	optNodes := 200000
	optTimeout := 2 * time.Second
	alphas := DefaultAlphas()
	if scale == Quick {
		count = 8
		optNodes = 30000
		optTimeout = time.Second
		alphas = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	graphs, err := daggen.Set(daggen.SmallParams(), count, seed)
	if err != nil {
		return nil, err
	}
	return NormalizedSweep(ctx, NormalizedSweepConfig{
		Graphs:      graphs,
		Platform:    RandomPlatform(),
		Alphas:      alphas,
		Seed:        seed,
		WithOptimal: true,
		OptNodes:    optNodes,
		OptTimeout:  optTimeout,
	})
}

// Fig11 reproduces Figure 11: makespan versus absolute memory for one DAG of
// SmallRandSet, all four heuristics plus the lower bound.
func Fig11(ctx context.Context, scale Scale, seed int64) (*Table, error) {
	g, err := daggen.Generate(daggen.SmallParams(), seed)
	if err != nil {
		return nil, err
	}
	p := RandomPlatform()
	_, peak, err := HEFTReference(ctx, g, p, seed)
	if err != nil {
		return nil, err
	}
	steps := 30
	if scale == Quick {
		steps = 10
	}
	return AbsoluteSweep(ctx, AbsoluteSweepConfig{
		Graph:      g,
		Platform:   p,
		Memories:   MemoryGrid(peak+peak/10, steps),
		Seed:       seed,
		LowerBound: true,
	})
}

// Fig12 reproduces Figure 12: LargeRandSet, normalised makespan and success
// rate for the two memory-aware heuristics. At Full scale this runs the
// paper's 100 DAGs of 1000 tasks and takes a while; Quick shrinks both.
func Fig12(ctx context.Context, scale Scale, seed int64) (*SweepResult, error) {
	params := daggen.LargeParams()
	count := 100
	alphas := DefaultAlphas()
	if scale == Quick {
		params.Size = 120
		count = 6
		alphas = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	graphs, err := daggen.Set(params, count, seed)
	if err != nil {
		return nil, err
	}
	return NormalizedSweep(ctx, NormalizedSweepConfig{
		Graphs:   graphs,
		Platform: RandomPlatform(),
		Alphas:   alphas,
		Seed:     seed,
	})
}

// Fig13 reproduces Figure 13: makespan versus absolute memory for one DAG of
// LargeRandSet, the four heuristics (no lower bound is drawn in the paper's
// figure, but including it costs nothing).
func Fig13(ctx context.Context, scale Scale, seed int64) (*Table, error) {
	params := daggen.LargeParams()
	steps := 25
	if scale == Quick {
		params.Size = 120
		steps = 8
	}
	g, err := daggen.Generate(params, seed)
	if err != nil {
		return nil, err
	}
	p := RandomPlatform()
	_, peak, err := HEFTReference(ctx, g, p, seed)
	if err != nil {
		return nil, err
	}
	return AbsoluteSweep(ctx, AbsoluteSweepConfig{
		Graph:    g,
		Platform: p,
		Memories: MemoryGrid(peak+peak/10, steps),
		Seed:     seed,
	})
}

// Fig14 reproduces Figure 14: the LU factorisation of a 13x13 tiled matrix
// on the mirage platform, makespan versus memory (in tiles).
func Fig14(ctx context.Context, scale Scale, seed int64) (*Table, error) {
	tiles := 13
	steps := 25
	if scale == Quick {
		tiles = 6
		steps = 8
	}
	g, err := linalg.LU(linalg.DefaultConfig(tiles))
	if err != nil {
		return nil, err
	}
	return linalgSweep(ctx, g, seed, steps)
}

// Fig15 reproduces Figure 15: the Cholesky factorisation of a 13x13 tiled
// matrix on the mirage platform.
func Fig15(ctx context.Context, scale Scale, seed int64) (*Table, error) {
	tiles := 13
	steps := 25
	if scale == Quick {
		tiles = 6
		steps = 8
	}
	g, err := linalg.Cholesky(linalg.DefaultConfig(tiles))
	if err != nil {
		return nil, err
	}
	return linalgSweep(ctx, g, seed, steps)
}

// linalgSweep is the common body of Figures 14 and 15: sweep absolute
// memory (in tiles) on the mirage platform for the two memory-aware
// heuristics, as in the paper's figures.
func linalgSweep(ctx context.Context, g *dag.Graph, seed int64, steps int) (*Table, error) {
	p := MiragePlatform()
	_, peak, err := HEFTReference(ctx, g, p, seed)
	if err != nil {
		return nil, err
	}
	return AbsoluteSweep(ctx, AbsoluteSweepConfig{
		Graph:      g,
		Platform:   p,
		Memories:   MemoryGrid(peak+peak/10, steps),
		Seed:       seed,
		Algorithms: []string{"memheft", "memminmin"},
	})
}
