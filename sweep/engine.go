package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	memsched "repro"
	"repro/internal/trace"
)

// Run executes spec against sess and collects every point result in point
// order plus the summary. On cancellation or a fatal point error the
// returned Result still carries the completed ordered prefix (its Summary
// is nil) together with the error.
func Run(ctx context.Context, sess *memsched.Session, spec Spec) (*Result, error) {
	res := &Result{}
	sum, err := Stream(ctx, sess, spec, func(pr PointResult) error {
		res.Points = append(res.Points, pr)
		return nil
	})
	res.Summary = sum
	return res, err
}

// Stream executes spec against sess, invoking fn once per point result in
// strictly increasing index order — results are held back until every
// earlier point has been delivered, so fn observes the same sequence
// regardless of worker count or completion order. fn runs on the calling
// goroutine. A non-nil fn error stops the sweep and is returned.
//
// The summary is returned once every point has been delivered; a cancelled
// or failed sweep returns a nil summary and the (wrapped) cause after the
// completed prefix has been delivered.
func Stream(ctx context.Context, sess *memsched.Session, spec Spec, fn func(PointResult) error) (*Summary, error) {
	if sess == nil {
		return nil, errors.New("sweep: nil session")
	}
	if fn == nil {
		fn = func(PointResult) error { return nil }
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	endCompile := trace.Start(ctx, "sweep/compile")
	c, err := compile(ctx, sess, &spec)
	endCompile()
	if err != nil {
		return nil, err
	}
	n := len(c.points)
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	chains := buildChains(c, &spec, workers)
	if workers > len(chains) {
		workers = len(chains)
	}

	// Precompute the session memos every worker fork inherits (statics,
	// ranks, the priority list of each swept seed), so the forks below are
	// born warm instead of each re-ranking the graph.
	if seeds := registrySeeds(c); len(seeds) > 0 {
		endWarm := trace.Start(ctx, "sweep/warmup")
		err := sess.WarmUp(ctx, seeds...)
		endWarm()
		if err != nil {
			return nil, err
		}
	}

	// Workers claim chains — capacity-ordered runs of point indices, a
	// single point each when replay is off — from an atomic cursor and
	// record outcomes into per-point slots; the collector (this goroutine)
	// emits the contiguous completed prefix. A fatal outcome — anything
	// that is not plain infeasibility — cancels runCtx so in-flight points
	// stop cooperatively and unclaimed points are skipped.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	outs := make([]outcome, n)
	done := make(chan int, n) // buffered: workers never block on the collector
	var cursor atomic.Int64
	var wg sync.WaitGroup

	// The first genuinely fatal point error is the sweep's cause: later
	// (or earlier-indexed) points interrupted by the resulting cancel
	// must not mask it when the collector walks the prefix.
	var fatalMu sync.Mutex
	var fatalErr error
	setFatal := func(err error) {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return // collateral interruption, not a cause
		}
		fatalMu.Lock()
		if fatalErr == nil {
			fatalErr = err
		}
		fatalMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		ws := sess
		if w > 0 {
			// Per-worker engine caches: forks share nothing mutable,
			// so workers never contend on a memo mutex (see
			// Session.Fork). Worker 0 keeps the caller's session —
			// a workers=1 sweep on a warm session stays warm.
			ws = sess.Fork()
		}
		wg.Add(1)
		go func(ws *memsched.Session) {
			defer wg.Done()
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= len(chains) {
					return
				}
				ch := chains[ci]
				for _, i := range ch.idxs {
					if err := runCtx.Err(); err != nil {
						outs[i] = outcome{err: fmt.Errorf("sweep: point %d skipped: %w", i, err)}
					} else {
						outs[i] = runPoint(runCtx, ws, &spec, c.points[i], i, ch.warm)
						if err := outs[i].err; err != nil {
							setFatal(err)
							cancel()
						}
					}
					done <- i
				}
			}
		}(ws)
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	emitted := 0
	ready := make([]bool, n)
	var sweepErr error
	for i := range done {
		ready[i] = true
		for sweepErr == nil && emitted < n && ready[emitted] {
			// The caller's context is authoritative even when the
			// workers have already raced ahead of the collector:
			// cancellation cuts the delivery stream at the current
			// prefix.
			if err := ctx.Err(); err != nil {
				sweepErr = fmt.Errorf("sweep: interrupted after %d of %d points: %w", emitted, n, err)
				cancel()
				break
			}
			if err := outs[emitted].err; err != nil {
				fatalMu.Lock()
				if fatalErr != nil {
					err = fatalErr
				}
				fatalMu.Unlock()
				sweepErr = err
				cancel()
				break
			}
			if err := fn(outs[emitted].pr); err != nil {
				sweepErr = fmt.Errorf("sweep: result sink failed: %w", err)
				cancel()
				break
			}
			emitted++
		}
	}
	if sweepErr != nil {
		return nil, sweepErr
	}
	sum := summarize(c, outs, workers)
	sum.WallTime = time.Since(start)
	return sum, nil
}

// outcome separates a delivered point result from a fatal error; exactly
// one of the two is meaningful.
type outcome struct {
	pr  PointResult
	err error
}

// pointChain is a run of point indices one worker executes in order. Warm
// chains thread memsched.WithWarmStart through their points, so each point
// replays the verified committed-placement prefix of its predecessor.
type pointChain struct {
	idxs []int
	warm bool
}

// registrySeeds returns the distinct seeds of every registry-scheduler
// point, in first-appearance order: the seeds whose priority lists
// Session.WarmUp should precompute before the worker forks are taken.
// Optimal and simulator points rank nothing seed-dependent up front.
func registrySeeds(c *compiled) []int64 {
	seen := make(map[int64]bool)
	var seeds []int64
	for _, pt := range c.points {
		switch pt.Scheduler {
		case SchedulerOptimal, SchedulerSimRank, SchedulerSimEFT:
			continue
		}
		if !seen[pt.Seed] {
			seen[pt.Seed] = true
			seeds = append(seeds, pt.Seed)
		}
	}
	// The session's priority memo is bounded; warming beyond it would only
	// evict earlier seeds again.
	if len(seeds) > 64 {
		seeds = seeds[:64]
	}
	return seeds
}

// totalCapacity orders platforms for chain building: the sum of the pool
// capacities, +Inf as soon as any pool is unlimited. A coarse key is enough
// — chains are segmented by the exact ReplayEligible predicate afterwards,
// so a tie broken "wrong" only shortens a chain, never corrupts a result.
func totalCapacity(p memsched.Platform) float64 {
	total := 0.0
	for _, pool := range p.Pools {
		if pool.Capacity >= memsched.Unlimited {
			return math.Inf(1)
		}
		total += float64(pool.Capacity)
	}
	return total
}

// buildChains groups the compiled points into the chains workers claim.
// Under ReplayOff (or for explicit point lists) every point is its own
// chain, reproducing the old point-granular scheduling. Under ReplayAuto a
// grid's points are grouped per replayable (scheduler, seed) pair, ordered
// by descending total capacity (ties by axis order), and split wherever two
// adjacent platforms lose replay eligibility; the longest chains are then
// halved until there is at least one chain per worker, so replay never
// serialises a sweep below its worker count. Chains are returned sorted by
// their first point index, which keeps claiming deterministic.
func buildChains(c *compiled, spec *Spec, workers int) []pointChain {
	if normalize(spec.Replay) == ReplayOff || !c.grid {
		chains := make([]pointChain, len(c.points))
		for i := range c.points {
			chains[i] = pointChain{idxs: []int{i}}
		}
		return chains
	}
	type key struct {
		sched string
		seed  int64
	}
	groups := make(map[key][]int)
	var order []key
	var chains []pointChain
	for i, pt := range c.points {
		if !memsched.ReplayableScheduler(pt.Scheduler) {
			chains = append(chains, pointChain{idxs: []int{i}})
			continue
		}
		k := key{pt.Scheduler, pt.Seed}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		idxs := groups[k]
		sort.SliceStable(idxs, func(a, b int) bool {
			ca, cb := totalCapacity(c.points[idxs[a]].Platform), totalCapacity(c.points[idxs[b]].Platform)
			if ca != cb {
				return ca > cb
			}
			return c.points[idxs[a]].Axis < c.points[idxs[b]].Axis
		})
		segStart := 0
		for j := 1; j <= len(idxs); j++ {
			if j == len(idxs) || !memsched.ReplayEligible(c.points[idxs[j-1]].Platform, c.points[idxs[j]].Platform) {
				seg := idxs[segStart:j]
				chains = append(chains, pointChain{idxs: seg, warm: len(seg) > 1})
				segStart = j
			}
		}
	}
	for len(chains) < workers {
		longest, size := -1, 1
		for i := range chains {
			if len(chains[i].idxs) > size {
				longest, size = i, len(chains[i].idxs)
			}
		}
		if longest < 0 {
			break // nothing left to split
		}
		head, tail := chains[longest].idxs[:size/2], chains[longest].idxs[size/2:]
		chains[longest] = pointChain{idxs: head, warm: len(head) > 1}
		chains = append(chains, pointChain{idxs: tail, warm: len(tail) > 1})
	}
	sort.Slice(chains, func(a, b int) bool { return chains[a].idxs[0] < chains[b].idxs[0] })
	return chains
}

// compile validates spec and expands it to the full point list, measuring
// the HEFT reference of an alpha sweep when needed (on the caller's
// session, so a warm session serves it from its memos).
func compile(ctx context.Context, sess *memsched.Session, spec *Spec) (*compiled, error) {
	if err := validateAxes(spec); err != nil {
		return nil, err
	}
	c := &compiled{
		schedulers: make([]string, 0, len(spec.Schedulers)),
		seeds:      spec.Seeds,
	}
	for _, name := range spec.Schedulers {
		norm := normalize(name)
		if !KnownScheduler(norm) {
			return nil, fmt.Errorf("sweep: unknown scheduler %q (known: %v)", name, SchedulerNames())
		}
		c.schedulers = append(c.schedulers, norm)
	}
	if len(c.schedulers) == 0 {
		c.schedulers = []string{"memheft"}
	}
	if len(c.seeds) == 0 {
		c.seeds = []int64{0}
	}

	if len(spec.Points) > 0 {
		c.points = make([]Point, len(spec.Points))
		for i, pt := range spec.Points {
			pt.Scheduler = normalize(pt.Scheduler)
			if pt.Scheduler == "" {
				pt.Scheduler = "memheft"
			}
			if !KnownScheduler(pt.Scheduler) {
				return nil, fmt.Errorf("sweep: point %d has unknown scheduler %q", i, spec.Points[i].Scheduler)
			}
			if err := pt.Platform.Validate(); err != nil {
				return nil, fmt.Errorf("sweep: point %d: %w", i, err)
			}
			c.points[i] = pt
		}
		return c, nil
	}

	// Grid: resolve the platform axis first.
	var platforms []memsched.Platform
	switch {
	case len(spec.Alphas) > 0:
		if err := spec.Base.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: base platform: %w", err)
		}
		peak := spec.Peak
		if peak == 0 {
			ref, err := sess.Schedule(ctx, spec.Base, memsched.WithScheduler("heft"), memsched.WithSeed(c.seeds[0]))
			if err != nil {
				return nil, fmt.Errorf("sweep: HEFT reference failed: %w", err)
			}
			for _, p := range ref.PeakResidency() {
				if p > peak {
					peak = p
				}
			}
			c.refMS = ref.Makespan()
		}
		c.peak = peak
		platforms = make([]memsched.Platform, len(spec.Alphas))
		c.axes = spec.Alphas
		for i, a := range spec.Alphas {
			platforms[i] = spec.Base.WithUniformBounds(int64(a * float64(peak)))
		}
	default:
		platforms = spec.Platforms
		c.axes = spec.Xs
		if c.axes == nil {
			c.axes = make([]float64, len(platforms))
			for i := range c.axes {
				c.axes[i] = float64(i)
			}
		}
		for i, p := range platforms {
			if err := p.Validate(); err != nil {
				return nil, fmt.Errorf("sweep: platform %d: %w", i, err)
			}
		}
	}

	c.grid = true
	c.points = make([]Point, 0, len(platforms)*len(c.schedulers)*len(c.seeds))
	for ai, p := range platforms {
		alpha := 0.0
		if len(spec.Alphas) > 0 {
			alpha = spec.Alphas[ai]
		}
		for _, sched := range c.schedulers {
			for _, seed := range c.seeds {
				c.points = append(c.points, Point{
					Platform:  p,
					Scheduler: sched,
					Seed:      seed,
					Axis:      ai,
					X:         c.axes[ai],
					Alpha:     alpha,
				})
			}
		}
	}
	return c, nil
}

// runPoint executes one point, warm-starting registry schedulers when the
// point sits on a warm chain. Infeasibility (memory bound, simulator
// deadlock, proven-infeasible optimum) is a regular result; every other
// error is fatal to the sweep.
func runPoint(ctx context.Context, sess *memsched.Session, spec *Spec, pt Point, idx int, warm bool) outcome {
	var (
		res *memsched.Result
		err error
	)
	switch pt.Scheduler {
	case SchedulerOptimal:
		opts := []memsched.ScheduleOption{memsched.WithSeed(pt.Seed), memsched.WithMaxNodes(spec.OptNodes)}
		if pt.Incumbent != nil {
			opts = append(opts, memsched.WithIncumbent(pt.Incumbent))
		}
		if spec.OptTimeout > 0 {
			opts = append(opts, memsched.WithTimeout(spec.OptTimeout))
		}
		res, err = sess.Optimal(ctx, pt.Platform, opts...)
	case SchedulerSimRank, SchedulerSimEFT:
		policy := memsched.SimRankPolicy
		if pt.Scheduler == SchedulerSimEFT {
			policy = memsched.SimEFTPolicy
		}
		res, err = sess.Simulate(ctx, pt.Platform, memsched.WithPolicy(policy), memsched.WithSeed(pt.Seed))
	default:
		res, err = sess.Schedule(ctx, pt.Platform,
			memsched.WithScheduler(pt.Scheduler), memsched.WithSeed(pt.Seed), memsched.WithWarmStart(warm))
	}

	pr := PointResult{Index: idx, Point: pt}
	switch {
	case errors.Is(err, memsched.ErrMemoryBound):
		pr.Reason = "memory_bound"
	case errors.Is(err, memsched.ErrSimStuck):
		pr.Reason = "sim_stuck"
	case err != nil:
		return outcome{err: fmt.Errorf("sweep: point %d (%s): %w", idx, pt.Scheduler, err)}
	case res.Pools == nil:
		// Optimal with no incumbent in budget, or proven infeasible.
		pr.Reason = "infeasible"
		pr.Stats = res.Stats
	default:
		pr.Feasible = true
		pr.Makespan = res.Makespan()
		pr.Peaks = res.PeakResidency()
		pr.Stats = res.Stats
		pr.ReplayedPlacements = res.Stats.ReplayedPlacements
		pr.ReplayTruncated = res.Stats.ReplayTruncated
		if spec.KeepResults {
			pr.Result = res
		}
	}
	return outcome{pr: pr}
}
