package experiments

import (
	"context"

	memsched "repro"
	"repro/internal/dag"
	"repro/internal/daggen"
	"repro/internal/linalg"
	"repro/sweep"
)

// This file hosts the experiments that go beyond the paper: the ablation of
// the processor-selection policy (append vs insertion), the comparison of
// the static heuristics against the online StarPU-style dispatcher of
// internal/sim, and the k-pool generalisation. All three are absolute
// memory sweeps on the parallel sweep engine; their outputs reuse the
// rendering of Figures 11/13/14/15.

// gridSweep runs one absolute-memory grid on the engine and folds the
// per-scheduler curves into a Table, relabelling columns (labels[i] names
// schedulers[i]'s column).
func gridSweep(ctx context.Context, sess *memsched.Session, platforms []memsched.Platform, xs []float64, schedulers, labels []string, seed int64) (*Table, error) {
	res, err := sweep.Run(ctx, sess, sweep.Spec{
		Platforms:  platforms,
		Xs:         xs,
		Schedulers: schedulers,
		Seeds:      []int64{seed},
	})
	if err != nil {
		return nil, err
	}
	table := &Table{XLabel: "memory", Columns: labels}
	for ai, x := range xs {
		row := make([]float64, len(schedulers))
		for si := range schedulers {
			row[si] = res.Summary.Curves[si].Makespan[ai]
		}
		table.AddRow(x, row...)
	}
	return table, nil
}

// memoryGridPlatforms expands a memory grid into uniformly bounded
// platforms plus their x labels.
func memoryGridPlatforms(base memsched.Platform, memories []int64) ([]memsched.Platform, []float64) {
	platforms := make([]memsched.Platform, len(memories))
	xs := make([]float64, len(memories))
	for i, mem := range memories {
		platforms[i] = base.WithUniformBounds(mem)
		xs[i] = float64(mem)
	}
	return platforms, xs
}

// ExtInsertion sweeps absolute memory on one random DAG and compares the
// paper's MemHEFT (append policy) against the insertion-based variant.
func ExtInsertion(ctx context.Context, scale Scale, seed int64) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	params := daggen.SmallParams()
	params.Size = 60
	steps := 20
	if scale == Quick {
		params.Size = 30
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
	sess, err := memsched.NewSession(g)
	if err != nil {
		return nil, err
	}
	platforms, xs := memoryGridPlatforms(p, MemoryGrid(peak+peak/10, steps))
	table, err := gridSweep(ctx, sess, platforms, xs,
		[]string{"memheft", "memheft-insertion"},
		[]string{"memheft-append", "memheft-insertion"}, seed)
	if err != nil {
		return nil, err
	}
	table.Name = "append vs insertion"
	return table, nil
}

// ExtOnline sweeps absolute memory on an LU factorisation and compares the
// static memory-aware heuristics against the online dispatcher's two
// policies. Online admission control is stricter than the static staircase
// accounting, so the online curves are expected to stop earlier and sit
// higher — quantifying what the paper's proposed StarPU integration would
// give up without lookahead.
func ExtOnline(ctx context.Context, scale Scale, seed int64) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tiles := 8
	steps := 16
	if scale == Quick {
		tiles = 5
		steps = 6
	}
	g, err := linalg.LU(linalg.DefaultConfig(tiles))
	if err != nil {
		return nil, err
	}
	p := MiragePlatform()
	_, peak, err := HEFTReference(ctx, g, p, seed)
	if err != nil {
		return nil, err
	}
	sess, err := memsched.NewSession(g)
	if err != nil {
		return nil, err
	}
	platforms, xs := memoryGridPlatforms(p, MemoryGrid(peak+peak/10, steps))
	table, err := gridSweep(ctx, sess, platforms, xs,
		[]string{"memheft", "memminmin", sweep.SchedulerSimRank, sweep.SchedulerSimEFT},
		[]string{"memheft", "memminmin", "online-rank", "online-eft"}, seed)
	if err != nil {
		return nil, err
	}
	table.Name = "static vs online"
	return table, nil
}

// ExtMultiPool sweeps the per-accelerator memory of a 3-pool platform
// (CPU + two accelerator types) on a flavoured random workload, showing the
// k-memory generalisation at work. Returns makespan per device-memory size
// for the generalised heuristics.
func ExtMultiPool(ctx context.Context, scale Scale, seed int64) (*Table, error) {
	params := daggen.SmallParams()
	params.Size = 45
	if scale == Quick {
		params.Size = 24
	}
	g, err := daggen.Generate(params, seed)
	if err != nil {
		return nil, err
	}
	return multiPoolSweep(ctx, g, seed)
}

func multiPoolSweep(ctx context.Context, g *dag.Graph, seed int64) (*Table, error) {
	// Pool times: CPU keeps the blue time; accelerator A gets the red
	// time; accelerator B gets the mean — three genuinely different
	// speeds per task. The session carries the matrix, so the engine runs
	// the generalised k-pool path.
	sess, err := memsched.NewSession(g, memsched.WithPoolTimes(multiPoolTimes(g)))
	if err != nil {
		return nil, err
	}
	// Reference footprint: total files (a bound that always fits).
	total := g.TotalFiles()
	var platforms []memsched.Platform
	var xs []float64
	for frac := 10; frac >= 1; frac-- {
		dev := total * int64(frac) / 10
		if dev == 0 {
			continue
		}
		platforms = append(platforms, multiPlatform(total*2, dev))
		xs = append(xs, float64(dev))
	}
	table, err := gridSweep(ctx, sess, platforms, xs,
		[]string{"memheft", "memminmin"},
		[]string{"multi-memheft", "multi-memminmin"}, seed)
	if err != nil {
		return nil, err
	}
	table.Name = "multi-pool sweep"
	table.XLabel = "device-memory"
	return table, nil
}
