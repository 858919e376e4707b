package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	memsched "repro"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/sweep"
)

// The paper's two sweep shapes — normalised memory fractions (Figures 10
// and 12) and absolute memory bounds (Figures 11/13/14/15) — both run on
// the parallel sweep engine of package repro/sweep: one Session per DAG, a
// declarative Spec for the alpha or memory axis, and the engine's worker
// pool in place of the hand-rolled goroutine pool this package used to
// carry. Results stay bit-for-bit deterministic: the engine orders results
// by point index regardless of worker scheduling.

// HEFTReference runs memory-oblivious HEFT on g and returns its makespan and
// the larger of its two memory peaks; the paper normalises every sweep by
// these quantities ("the amount of memory required by HEFT").
func HEFTReference(ctx context.Context, g *dag.Graph, p platform.Platform, seed int64) (makespan float64, maxPeak int64, err error) {
	sess, err := memsched.NewSession(g)
	if err != nil {
		return 0, 0, err
	}
	res, err := sess.Schedule(ctx, poolPlatform(p), memsched.WithScheduler("heft"), memsched.WithSeed(seed))
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: HEFT reference failed: %w", err)
	}
	return res.Makespan(), slices.Max(res.PeakResidency()), nil
}

// poolPlatform lifts the dual-memory platform type onto the unified pool
// surface the Session API (and the sweep engine) speak.
func poolPlatform(p platform.Platform) memsched.Platform {
	return memsched.NewDualPlatform(p.PBlue, p.PRed, p.MBlue, p.MRed)
}

// NormalizedSweepConfig drives the Figure 10 / Figure 12 experiment: for
// every DAG of a set and every alpha, run the memory-aware heuristics with
// both memory bounds set to alpha times the HEFT requirement, then average
// the HEFT-normalised makespans over successful runs and record success
// rates.
type NormalizedSweepConfig struct {
	Graphs   []*dag.Graph
	Platform platform.Platform // memory bounds ignored
	Alphas   []float64
	Seed     int64

	// WithOptimal adds the exact-search reference curve (Figure 10).
	WithOptimal bool
	OptNodes    int           // per-instance node budget; 0 = exact.DefaultMaxNodes
	OptTimeout  time.Duration // per-instance time budget
}

// DefaultAlphas is the normalised-memory grid of Figures 10 and 12.
func DefaultAlphas() []float64 {
	alphas := make([]float64, 0, 20)
	for a := 0.05; a <= 1.0001; a += 0.05 {
		alphas = append(alphas, math.Round(a*100)/100)
	}
	return alphas
}

// SweepResult carries the two panels of Figures 10 and 12.
type SweepResult struct {
	Makespan *Table // average normalised makespan (successful runs only)
	Success  *Table // fraction of DAGs scheduled
}

// normalizedSchedulers is the heuristic axis of the normalised sweeps, in
// column order.
var normalizedSchedulers = []string{"memheft", "memminmin"}

// NormalizedSweep runs the experiment on the sweep engine: one alpha ×
// scheduler grid per DAG, then — when WithOptimal is set — a second
// explicit-points sweep running the exact reference at every alpha, each
// point seeded with the better heuristic schedule of the same cell as its
// incumbent (a dependency a single grid cannot express, but explicit
// Points carry it, so the exact searches still fan out across workers).
// The context cancels the sweep between and inside points; a cancelled
// sweep returns ctx's error.
func NormalizedSweep(ctx context.Context, cfg NormalizedSweepConfig) (*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cols := []string{"MemHEFT", "MemMinMin"}
	if cfg.WithOptimal {
		cols = append(cols, "Optimal")
	}
	nA, nG, nS := len(cfg.Alphas), len(cfg.Graphs), len(normalizedSchedulers)
	sums := make([][]float64, nA)
	oks := make([][]int, nA)
	for ai := range sums {
		sums[ai] = make([]float64, len(cols))
		oks[ai] = make([]int, len(cols))
	}

	for _, g := range cfg.Graphs {
		sess, err := memsched.NewSession(g)
		if err != nil {
			return nil, err
		}
		res, err := sweep.Run(ctx, sess, sweep.Spec{
			Base:        poolPlatform(cfg.Platform),
			Alphas:      cfg.Alphas,
			Schedulers:  normalizedSchedulers,
			Seeds:       []int64{cfg.Seed},
			KeepResults: cfg.WithOptimal, // the exact pass reuses the heuristic schedules as incumbents
		})
		if err != nil {
			return nil, err
		}
		refMS := res.Summary.RefMakespan
		incumbents := make([]*memsched.PoolSchedule, nA)
		for ai := range cfg.Alphas {
			// Point index (ai, si): the grid is axis-major with one seed.
			for si := 0; si < nS; si++ {
				pr := res.Points[ai*nS+si]
				if !pr.Feasible {
					continue
				}
				oks[ai][si]++
				sums[ai][si] += pr.Makespan / refMS
				if cfg.WithOptimal && pr.Result != nil && pr.Result.Pools != nil {
					if best := incumbents[ai]; best == nil || pr.Makespan < best.Makespan() {
						incumbents[ai] = pr.Result.Pools
					}
				}
			}
		}
		if cfg.WithOptimal {
			points := make([]sweep.Point, nA)
			for ai, alpha := range cfg.Alphas {
				bound := int64(alpha * float64(res.Summary.Peak))
				points[ai] = sweep.Point{
					Platform:  poolPlatform(cfg.Platform).WithUniformBounds(bound),
					Scheduler: sweep.SchedulerOptimal,
					Seed:      cfg.Seed,
					Axis:      ai,
					X:         alpha,
					Alpha:     alpha,
					Incumbent: incumbents[ai],
				}
			}
			opt, err := sweep.Run(ctx, sess, sweep.Spec{
				Points:     points,
				OptNodes:   cfg.OptNodes,
				OptTimeout: cfg.OptTimeout,
			})
			if err != nil {
				return nil, err
			}
			for ai := range cfg.Alphas {
				if pr := opt.Points[ai]; pr.Feasible {
					oks[ai][nS]++
					sums[ai][nS] += pr.Makespan / refMS
				}
			}
		}
	}

	msTable := &Table{Name: "normalized makespan", XLabel: "alpha", Columns: cols}
	srTable := &Table{Name: "success rate", XLabel: "alpha", Columns: cols}
	for ai, alpha := range cfg.Alphas {
		msRow := make([]float64, len(cols))
		srRow := make([]float64, len(cols))
		for i := range cols {
			if oks[ai][i] > 0 {
				msRow[i] = sums[ai][i] / float64(oks[ai][i])
			} else {
				msRow[i] = math.NaN()
			}
			srRow[i] = float64(oks[ai][i]) / float64(nG)
		}
		msTable.AddRow(alpha, msRow...)
		srTable.AddRow(alpha, srRow...)
	}
	return &SweepResult{Makespan: msTable, Success: srTable}, nil
}

// AbsoluteSweepConfig drives the Figures 11/13/14/15 experiment: one DAG,
// absolute memory bounds on the x axis, one curve per algorithm (plus
// optionally the lower bound).
type AbsoluteSweepConfig struct {
	Graph      *dag.Graph
	Platform   platform.Platform // memory bounds ignored
	Memories   []int64           // bounds applied to both memories
	Seed       int64
	Algorithms []string // names from memsched.Schedulers; nil = all four
	LowerBound bool
}

// AbsoluteSweep runs the experiment on the sweep engine. Memory-oblivious
// algorithms (heft, minmin) are evaluated once — their schedules ignore the
// bounds — and reported only at bounds that accommodate their peaks, the
// horizontal reference lines of Figure 11. The context cancels the sweep
// cooperatively.
func AbsoluteSweep(ctx context.Context, cfg AbsoluteSweepConfig) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	names := cfg.Algorithms
	if names == nil {
		names = []string{"heft", "minmin", "memheft", "memminmin"}
	}
	// The sweep engine reports curves under normalized (lower-cased)
	// scheduler names; normalize once so mixed-case Algorithms entries
	// match them.
	names = append([]string(nil), names...)
	for i, name := range names {
		names[i] = strings.ToLower(strings.TrimSpace(name))
	}
	cols := append([]string(nil), names...)
	if cfg.LowerBound {
		cols = append(cols, "lowerbound")
	}
	table := &Table{Name: "makespan vs memory", XLabel: "memory", Columns: cols}

	sess, err := memsched.NewSession(cfg.Graph)
	if err != nil {
		return nil, err
	}
	base := poolPlatform(cfg.Platform)

	lb := math.NaN()
	if cfg.LowerBound {
		v, err := sess.LowerBound(base)
		if err != nil {
			return nil, err
		}
		lb = v
	}

	// Split the algorithm axis: the oblivious pair is memory-independent
	// (one point each), the aware names form the memory grid.
	type obliv struct {
		ms   float64
		peak int64
	}
	oblivious := map[string]obliv{}
	var aware []string
	for _, name := range names {
		if name != "heft" && name != "minmin" {
			aware = append(aware, name)
			continue
		}
		res, err := sweep.Run(ctx, sess, sweep.Spec{
			Platforms:  []memsched.Platform{base},
			Schedulers: []string{name},
			Seeds:      []int64{cfg.Seed},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s failed: %w", name, err)
		}
		pt := res.Points[0]
		peak := int64(0)
		for _, p := range pt.Peaks {
			if p > peak {
				peak = p
			}
		}
		oblivious[name] = obliv{ms: pt.Makespan, peak: peak}
	}

	curves := map[string][]float64{}
	if len(aware) > 0 {
		platforms := make([]memsched.Platform, len(cfg.Memories))
		xs := make([]float64, len(cfg.Memories))
		for i, mem := range cfg.Memories {
			platforms[i] = base.WithUniformBounds(mem)
			xs[i] = float64(mem)
		}
		res, err := sweep.Run(ctx, sess, sweep.Spec{
			Platforms:  platforms,
			Xs:         xs,
			Schedulers: aware,
			Seeds:      []int64{cfg.Seed},
		})
		if err != nil {
			return nil, err
		}
		for _, c := range res.Summary.Curves {
			curves[c.Scheduler] = c.Makespan
		}
	}

	for mi, mem := range cfg.Memories {
		row := make([]float64, len(cols))
		for i, name := range names {
			if o, ok := oblivious[name]; ok {
				if mem >= o.peak {
					row[i] = o.ms
				} else {
					row[i] = math.NaN()
				}
				continue
			}
			row[i] = curves[name][mi]
		}
		if cfg.LowerBound {
			row[len(row)-1] = lb
		}
		table.AddRow(float64(mem), row...)
	}
	return table, nil
}

// MemoryGrid returns count bounds spread uniformly over (0, max], rounded to
// integers and deduplicated; convenient for absolute sweeps.
func MemoryGrid(max int64, count int) []int64 {
	if count < 1 {
		count = 1
	}
	var out []int64
	last := int64(-1)
	for i := 1; i <= count; i++ {
		v := int64(math.Round(float64(max) * float64(i) / float64(count)))
		if v != last {
			out = append(out, v)
			last = v
		}
	}
	return out
}
