// Package sweep evaluates one scheduling session across many platform /
// scheduler / seed combinations in parallel — the experimental shape of the
// paper's entire evaluation section (schedule one DAG over a grid of memory
// fractions and heuristics) promoted to a first-class engine.
//
// A Spec describes the sweep declaratively: either a cartesian grid
// (Platforms or Alphas × Schedulers × Seeds) or an explicit Points list.
// Run and Stream execute it on a bounded worker pool; every worker owns a
// warm copy-on-write fork of the Session (see memsched.Session.Fork), so
// the hot path shares no cache mutexes or recycled buffers between workers
// and throughput scales with cores. Results are delivered ordered by point
// index regardless of completion order, and are bit-identical for every
// worker count — each point is a pure function of (graph, platform,
// scheduler, seed).
//
// Grid sweeps additionally warm-start across their own points (see
// Spec.Replay): the points of each replayable (scheduler, seed) pair are
// chained along descending platform capacities and each point replays the
// verified committed-placement prefix of its predecessor, re-deriving only
// the suffix the tighter capacities actually change — which makes dense
// capacity sweeps sub-linear in the number of grid points without changing
// a single result.
//
// Infeasibility is data, not failure: points that end in ErrMemoryBound or
// ErrSimStuck are reported with Feasible == false and the sweep continues —
// the per-scheduler feasibility frontier is part of the Summary. Any other
// error (including context cancellation) stops the sweep; the results
// already emitted form a contiguous, ordered prefix.
package sweep

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	memsched "repro"
)

// Replay policies of Spec.Replay.
const (
	// ReplayAuto chains same-(scheduler, seed) grid points by descending
	// capacity and warm-starts each from its predecessor's trace. The
	// default.
	ReplayAuto = "auto"
	// ReplayOff schedules every point from scratch.
	ReplayOff = "off"
)

// Schedulers beyond the heuristic registry that the engine accepts: the
// branch-and-bound search and the two online dispatcher policies.
const (
	// SchedulerOptimal runs Session.Optimal (dual sessions, 2-pool
	// platforms) with the Spec's node/time budgets.
	SchedulerOptimal = "optimal"
	// SchedulerSimRank runs Session.Simulate with the rank dispatch order.
	SchedulerSimRank = "sim-rank"
	// SchedulerSimEFT runs Session.Simulate with the EFT dispatch order.
	SchedulerSimEFT = "sim-eft"
)

// Spec declares a sweep. Exactly one source of points must be present: the
// Platforms axis, the Alphas axis (with Base), or the explicit Points list.
// Schedulers and Seeds default to {"memheft"} and {0}.
type Spec struct {
	// Platforms is the explicit platform axis of a grid sweep.
	Platforms []memsched.Platform

	// Xs optionally labels the Platforms axis (curve x values, e.g. the
	// memory bound each platform encodes). Must match len(Platforms);
	// defaults to the platform index.
	Xs []float64

	// Alphas declares a memory-fraction sweep instead of Platforms: for
	// every alpha, the platform is Base with each pool capacity set to
	// alpha*Peak — the paper's normalised-memory experiments.
	Alphas []float64
	// Base is the platform template of an alpha sweep (its capacities are
	// ignored).
	Base memsched.Platform
	// Peak is the 100% memory reference of an alpha sweep. Zero means
	// "measure it": the engine runs memory-oblivious HEFT on Base once and
	// uses its largest pool peak, exactly like the paper normalises by
	// "the amount of memory required by HEFT". The measured (or given)
	// peak and the HEFT reference makespan are reported in the Summary.
	Peak int64

	// Schedulers is the scheduler axis: any registry name
	// (memsched.Schedulers) plus SchedulerOptimal / SchedulerSimRank /
	// SchedulerSimEFT. Default {"memheft"}.
	Schedulers []string
	// Seeds is the tie-breaking seed axis. Default {0}.
	Seeds []int64

	// Points is an explicit point list, mutually exclusive with the grid
	// axes. The Summary of an explicit sweep carries no curves or
	// frontier (the points need not form a grid).
	Points []Point

	// Replay selects the warm-start policy of grid sweeps: ReplayAuto (the
	// default, also "") chains the points of each replayable (scheduler,
	// seed) pair along descending platform capacities and runs every chain
	// with memsched.WithWarmStart, so each point replays the verified
	// placement prefix of its predecessor and re-derives only the suffix
	// the tighter capacities change; ReplayOff schedules every point from
	// scratch. Results are bit-identical either way (replay is verified
	// step by step and the engine falls back to normal scheduling at the
	// first divergence) — only the per-point ReplayedPlacements counters
	// and the wall time differ. Explicit Points sweeps never chain.
	Replay string

	// Workers bounds the worker pool; 0 means GOMAXPROCS. The pool is
	// additionally capped by the point count (chains keep at least one
	// runnable chain per worker, so replay never costs parallelism).
	Workers int

	// KeepResults retains the full *memsched.Result (schedule included)
	// on every PointResult. Off by default: a 64-point sweep of a large
	// DAG would otherwise pin 64 schedules.
	KeepResults bool

	// OptNodes / OptTimeout budget SchedulerOptimal points (0 = the
	// search's defaults / no time budget).
	OptNodes   int
	OptTimeout time.Duration
}

// Point is one sweep evaluation: a platform, a scheduler, a seed. Grid
// compilation fills Axis/X/Alpha so results can be folded into curves;
// explicit points may leave them zero.
type Point struct {
	Platform  memsched.Platform
	Scheduler string
	Seed      int64

	// Axis is the index on the platform/alpha axis this point belongs to,
	// X its curve coordinate (alpha, a caller-provided Xs value, or the
	// axis index), and Alpha the memory fraction that produced Platform
	// (0 for absolute platforms).
	Axis  int
	X     float64
	Alpha float64

	// Incumbent seeds a SchedulerOptimal point's branch-and-bound search
	// with a known-valid schedule (see memsched.WithIncumbent); ignored
	// by every other scheduler. Only expressible on explicit Points —
	// grid points have no natural incumbent.
	Incumbent *memsched.PoolSchedule
}

// PointResult is the outcome of one point. Feasible is false when the
// scheduler could not fit the graph (Reason says why); the sweep continues
// past infeasible points.
type PointResult struct {
	Index    int
	Point    Point
	Feasible bool
	// Reason classifies an infeasible point: "memory_bound", "sim_stuck",
	// or "infeasible" (Optimal proved no list schedule exists or found
	// none in budget). Empty when Feasible.
	Reason   string
	Makespan float64 // 0 when infeasible
	Peaks    []int64 // per-pool peak residency; nil when infeasible
	Stats    memsched.Stats
	// ReplayedPlacements / ReplayTruncated surface the warm-start replay
	// counters of this point (mirrors of Stats.ReplayedPlacements /
	// Stats.ReplayTruncated): how many placements were committed by
	// verified trace replay, and whether the replay stopped early because
	// a recorded decision no longer held under the point's capacities.
	// Always zero under ReplayOff and on chain-opening points.
	ReplayedPlacements int
	ReplayTruncated    bool
	// Result is the full scheduling result, retained only when
	// Spec.KeepResults is set.
	Result *memsched.Result
}

// Result is a fully collected sweep: every point result in point order,
// plus the computed summary. A cancelled or failed sweep returns the
// completed ordered prefix with a nil Summary alongside the error.
type Result struct {
	Points  []PointResult
	Summary *Summary
}

// Summary aggregates a completed sweep.
type Summary struct {
	// Points and Feasible count the executed and the schedulable points.
	Points, Feasible int
	// BestIndex is the point index of the smallest feasible makespan
	// (lowest index on ties), -1 when nothing was feasible.
	BestIndex    int
	BestMakespan float64
	// RefMakespan and Peak report the HEFT reference of an alpha sweep
	// (zero when Spec.Peak was given or the sweep was absolute).
	RefMakespan float64
	Peak        int64
	// Curves holds one makespan curve per scheduler over the platform
	// axis (grid sweeps only; seeds are averaged over feasible runs, NaN
	// marks axis points where no seed was feasible).
	Curves []Curve
	// Frontier holds each scheduler's memory-bound frontier (grid sweeps
	// only): the first axis point, in axis order, at which every seed
	// produced a schedule. Axis == -1 when the scheduler never fully
	// succeeded.
	Frontier []Frontier
	// Workers is the worker count that ran; WallTime the end-to-end
	// duration of the sweep.
	Workers  int
	WallTime time.Duration
}

// Curve is one scheduler's makespan profile over the platform axis.
type Curve struct {
	Scheduler string
	X         []float64 // alpha / Xs value / axis index, in axis order
	Makespan  []float64 // mean over feasible seeds; NaN = none feasible
}

// Frontier is one scheduler's feasibility frontier on the platform axis.
type Frontier struct {
	Scheduler string
	Axis      int     // first axis index with every seed feasible; -1 = never
	X         float64 // the axis coordinate of Axis (0 when Axis == -1)
}

// KnownScheduler reports whether name is acceptable in Spec.Schedulers: a
// registered heuristic or one of the engine extensions (optimal, sim-rank,
// sim-eft). Matching is case-insensitive like the registry's.
func KnownScheduler(name string) bool {
	name = strings.ToLower(strings.TrimSpace(name))
	switch name {
	case SchedulerOptimal, SchedulerSimRank, SchedulerSimEFT:
		return true
	}
	for _, n := range memsched.Schedulers() {
		if n == name {
			return true
		}
	}
	return false
}

// SchedulerNames returns every name KnownScheduler accepts: the registry
// plus the engine extensions, sorted.
func SchedulerNames() []string {
	names := append([]string(nil), memsched.Schedulers()...)
	names = append(names, SchedulerOptimal, SchedulerSimEFT, SchedulerSimRank)
	sort.Strings(names)
	return names
}

// compiled is a validated, fully expanded spec.
type compiled struct {
	points     []Point
	grid       bool // curves/frontier apply
	schedulers []string
	seeds      []int64
	axes       []float64 // X per axis index (grid only)
	refMS      float64
	peak       int64
}

// normalize lower-cases and de-spaces a scheduler name like the registry.
func normalize(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// validateAxes checks the point-source arity of spec before compilation.
func validateAxes(spec *Spec) error {
	sources := 0
	if len(spec.Platforms) > 0 {
		sources++
	}
	if len(spec.Alphas) > 0 {
		sources++
	}
	if len(spec.Points) > 0 {
		sources++
	}
	if sources == 0 {
		return errors.New("sweep: spec declares no points (set Platforms, Alphas or Points)")
	}
	if sources > 1 {
		return errors.New("sweep: set exactly one of Platforms, Alphas and Points")
	}
	if len(spec.Xs) > 0 && len(spec.Xs) != len(spec.Platforms) {
		return fmt.Errorf("sweep: %d Xs labels for %d platforms", len(spec.Xs), len(spec.Platforms))
	}
	if len(spec.Alphas) > 0 {
		if spec.Base.NumPools() == 0 {
			return errors.New("sweep: an alpha sweep needs a Base platform")
		}
		for _, a := range spec.Alphas {
			if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("sweep: alpha %g is not a positive fraction", a)
			}
		}
	}
	if spec.Peak < 0 {
		return fmt.Errorf("sweep: negative peak %d", spec.Peak)
	}
	if spec.Workers < 0 {
		return fmt.Errorf("sweep: negative worker count %d", spec.Workers)
	}
	switch normalize(spec.Replay) {
	case "", ReplayAuto, ReplayOff:
	default:
		return fmt.Errorf("sweep: unknown replay policy %q (use %q or %q)", spec.Replay, ReplayAuto, ReplayOff)
	}
	return nil
}

// NumPoints returns the number of points spec expands to, before any
// platform validation (convenient for admission control in servers).
func (spec Spec) NumPoints() int {
	if len(spec.Points) > 0 {
		return len(spec.Points)
	}
	axis := len(spec.Platforms)
	if len(spec.Alphas) > 0 {
		axis = len(spec.Alphas)
	}
	scheds, seeds := len(spec.Schedulers), len(spec.Seeds)
	if scheds == 0 {
		scheds = 1
	}
	if seeds == 0 {
		seeds = 1
	}
	return axis * scheds * seeds
}
