package memsched

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/exact"
	"repro/internal/multi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Session is the primary scheduling handle: it is created once for a task
// graph and owns every per-graph memo the engine uses — the validated
// statics, the seeded priority lists and mean ranks, and the candidate
// caches' inputs. A Session makes them per-graph, concurrency-safe and
// bounded by construction, so any number of goroutines can call Schedule
// concurrently on any number of sessions without contending.
//
// A Session built with NewSession carries the graph's dual (blue/red)
// processing times, so it schedules on 2-pool platforms: pool 0 runs the
// blue times, pool 1 the red ones, and platforms with another pool count
// are rejected (the dual times define only two columns). A Session built
// with WithPoolTimes carries an explicit per-pool timing matrix and
// schedules on platforms with that many pools. Both run the same engine.
type Session struct {
	g      *Graph
	times  [][]float64     // nil = dual times from the graph
	inst   *multi.Instance // the graph with its timing matrix
	caches *multi.Caches   // ranks, priority lists, statics, validation

	mu   sync.Mutex
	hash string // lazily computed canonical content hash

	// Warm-start replay entries, keyed by (scheduler, seed): the committed
	// placement sequence (and resulting peaks) of the most recent successful
	// WithWarmStart run, replayed as a verified prefix by the next one when
	// the platform capacities did not grow. Stored entries are immutable.
	// Never shared with forks — each fork accumulates its own.
	warmMu sync.Mutex
	warm   map[warmKey]*warmEntry
}

// SessionOption configures a Session at creation.
type SessionOption func(*Session) error

// WithPoolTimes supplies an explicit Times[task][pool] processing-time
// matrix, turning the session into a k-pool session: the platform's pool
// count must match the matrix width. The graph's WBlue/WRed fields are
// ignored. The matrix is validated here, at the width of its first row, so
// a ragged or negative matrix fails at creation instead of on every
// Schedule call.
func WithPoolTimes(times [][]float64) SessionOption {
	return func(s *Session) error {
		if len(times) != s.g.NumTasks() {
			return fmt.Errorf("memsched: pool-time matrix has %d rows for %d tasks", len(times), s.g.NumTasks())
		}
		if len(times) > 0 && len(times[0]) == 0 {
			return errors.New("memsched: pool-time matrix has no pool columns")
		}
		in := multi.NewInstance(s.g, times)
		if err := in.ValidateMatrix(); err != nil {
			return err
		}
		s.times, s.inst = times, in
		return nil
	}
}

// NewSession validates g once and returns a scheduling session for it. The
// graph must not be mutated while the session is in use.
func NewSession(g *Graph, opts ...SessionOption) (*Session, error) {
	if g == nil {
		return nil, errors.New("memsched: nil graph")
	}
	s := &Session{g: g, caches: multi.NewCaches()}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.inst == nil {
		s.inst = multi.FromDual(g)
	}
	if err := s.caches.Validate(s.inst, s.inst.Width()); err != nil {
		return nil, err
	}
	return s, nil
}

// Graph returns the session's task graph.
func (s *Session) Graph() *Graph { return s.g }

// ForkOption configures Session.Fork.
type ForkOption func(*forkConfig)

type forkConfig struct {
	cold bool
}

// ForkCold makes the fork start with empty memo caches instead of the
// copy-on-write view of the parent's. Use it to measure cold-cache cost or
// to shed a parent's memo footprint; schedules are identical either way.
func ForkCold() ForkOption {
	return func(c *forkConfig) { c.cold = true }
}

// Fork returns a new session scheduling the same (already validated) graph
// and pool times. By default the fork is born warm: it shares the parent's
// immutable memos — graph statics, validation results, mean ranks and a
// frozen snapshot of the seeded priority lists — behind copy-on-write
// wrappers, so its first Schedule call skips the ranking phase entirely
// while the first divergent write (a new seed, a re-keyed graph) detaches
// into private storage. Pass ForkCold for the old fresh-cache behaviour.
//
// Schedules produced by a fork are bit-identical to the parent's — the
// memos only cache pure functions of the graph — so forks exist for
// contention and warm-up: a worker that owns a fork never touches another
// worker's cache mutexes. The sweep engine (package sweep) hands one warm
// fork to each of its workers. The graph hash and the instance are shared
// (both are immutable once computed); warm-start replay traces are not —
// each fork accumulates its own.
func (s *Session) Fork(opts ...ForkOption) *Session {
	var cfg forkConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	f := &Session{
		g:     s.g,
		times: s.times,
		inst:  s.inst,
		hash:  s.GraphHash(), // memoize once, share the value
	}
	if cfg.cold {
		f.caches = multi.NewCaches()
	} else {
		f.caches = s.caches.Fork()
	}
	return f
}

// GraphHash returns the canonical content hash identifying what the session
// schedules: the graph's CanonicalHash (see GraphHash at package level),
// extended with a digest of the explicit pool-time matrix for WithPoolTimes
// sessions. Two sessions with equal hashes produce identical schedules for
// identical calls, which makes the hash the natural key for caching sessions
// across requests — the scheduling service in package serve does exactly
// that. The hash is computed once and memoized.
func (s *Session) GraphHash() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hash == "" {
		s.hash = s.g.CanonicalHash()
		if s.times != nil {
			h := sha256.New()
			h.Write([]byte(s.hash))
			var buf [8]byte
			for _, row := range s.times {
				for _, w := range row {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
					h.Write(buf[:])
				}
				binary.LittleEndian.PutUint64(buf[:], ^uint64(0)) // row separator
				h.Write(buf[:])
			}
			s.hash = hex.EncodeToString(h.Sum(nil))
		}
	}
	return s.hash
}

// scheduleConfig collects the functional options of one scheduling call.
type scheduleConfig struct {
	seed      int64
	scheduler string
	insertion bool
	warmStart bool
	policy    SimPolicy
	timeout   time.Duration
	maxNodes  int
	incumbent *PoolSchedule
}

// ScheduleOption tunes one Schedule, Optimal or Simulate call.
type ScheduleOption func(*scheduleConfig)

// WithSeed sets the tie-breaking seed of the priority phase (runs with
// equal seeds are reproducible). The default is 0.
func WithSeed(seed int64) ScheduleOption {
	return func(c *scheduleConfig) { c.seed = seed }
}

// WithScheduler selects a registered heuristic by name (case-insensitive;
// see Schedulers). The default is "memheft".
func WithScheduler(name string) ScheduleOption {
	return func(c *scheduleConfig) { c.scheduler = name }
}

// WithInsertion switches MemHEFT's processor selection to classical HEFT's
// insertion-based policy (idle gaps may be filled) instead of the paper's
// append policy. Only valid with the "memheft" scheduler.
func WithInsertion() ScheduleOption {
	return func(c *scheduleConfig) { c.insertion = true }
}

// WithWarmStart enables capacity-delta replay for Schedule: the call
// records its committed placement sequence under the (scheduler, seed) key,
// and the next warm-started call with the same key replays the recorded
// prefix — each step verified against the live state, so the result stays
// bit-identical to a from-scratch run — as long as no pool capacity grew
// (see ReplayEligible), falling back to normal scheduling at the first
// divergence. Stats.ReplayedPlacements and Stats.ReplayTruncated report
// what replay did. Supported by the memheft, memminmin, heft and minmin
// schedulers (silently inert elsewhere, including WithInsertion). The
// default is off; the sweep engine turns it on along its capacity-ordered
// point chains.
func WithWarmStart(on bool) ScheduleOption {
	return func(c *scheduleConfig) { c.warmStart = on }
}

// WithPolicy selects the online dispatch policy of Simulate (ignored by
// Schedule and Optimal). The default is SimRankPolicy.
func WithPolicy(p SimPolicy) ScheduleOption {
	return func(c *scheduleConfig) { c.policy = p }
}

// WithTimeout is a convenience wrapper around context cancellation: the
// call derives a context.WithTimeout from its context. For Optimal it
// bounds the search like an exhausted node budget (best incumbent is
// reported); for Schedule and Simulate expiry interrupts the run with an
// error wrapping context.DeadlineExceeded.
func WithTimeout(d time.Duration) ScheduleOption {
	return func(c *scheduleConfig) { c.timeout = d }
}

// WithMaxNodes bounds the node budget of Optimal's branch-and-bound search
// (0 means the default budget). Ignored by Schedule and Simulate.
func WithMaxNodes(n int) ScheduleOption {
	return func(c *scheduleConfig) { c.maxNodes = n }
}

// WithIncumbent seeds Optimal's branch-and-bound search with a known-valid
// schedule (typically the best heuristic result for the same platform): the
// search starts with its makespan as the upper bound, prunes against it
// immediately, and reports it back when the node or time budget exhausts
// before anything better is found. Ignored by Schedule and Simulate.
func WithIncumbent(s *PoolSchedule) ScheduleOption {
	return func(c *scheduleConfig) { c.incumbent = s }
}

// newScheduleConfig applies opts over the defaults.
func newScheduleConfig(opts []ScheduleOption) scheduleConfig {
	cfg := scheduleConfig{scheduler: "memheft"}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.scheduler = strings.ToLower(strings.TrimSpace(cfg.scheduler))
	return cfg
}

// withTimeout wraps ctx with cfg.timeout when set (nil ctx = background).
func (cfg scheduleConfig) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.timeout > 0 {
		return context.WithTimeout(ctx, cfg.timeout)
	}
	return ctx, func() {}
}

// Stats carries the structured statistics of one scheduling call.
type Stats struct {
	// Scheduler is the registry name of the heuristic that ran ("optimal"
	// for the exact search, "sim-rank"/"sim-eft" for the simulator).
	Scheduler string
	// Makespan of the produced schedule (+Inf when none was produced).
	Makespan float64
	// CacheHits / CacheMisses count candidate evaluations served from the
	// epoch-invalidated (task, pool) memo vs recomputed.
	CacheHits, CacheMisses uint64
	// PoolTasks is the number of tasks committed to each pool, in pool
	// order (Schedule only).
	PoolTasks []int
	// ReplayedPlacements is the number of placements committed by verified
	// trace replay instead of full candidate evaluation (WithWarmStart
	// runs; 0 without a usable trace).
	ReplayedPlacements int
	// ReplayTruncated reports that a replay attempt stopped before
	// exhausting its trace — a recorded decision turned infeasible or
	// suboptimal under the new capacities and the engine re-derived the
	// suffix from scratch. False when no trace was replayed at all.
	ReplayTruncated bool
	// Nodes is the number of branch-and-bound nodes explored (Optimal).
	Nodes int
	// Proven reports whether Optimal proved optimality (or infeasibility)
	// over the list-schedule space.
	Proven bool
	// Events is the number of dispatcher invocations (Simulate).
	Events int
	// WallTime is the end-to-end duration of the call.
	WallTime time.Duration
	// Phases is the call's span timeline — ranking, statics, warm-start
	// replay, the placement loop (plus clone/search/dispatch on the
	// shortcut, Optimal and Simulate paths) — populated only when the
	// call's context carries a trace recorder (WithPhaseTrace, or the
	// per-request recorder installed by the serving layer). Offsets are
	// relative to the call's start; nil when tracing is off.
	Phases []Phase
}

// CacheHitRate returns the fraction of candidate evaluations served from
// the memo (0 when nothing was evaluated).
func (st Stats) CacheHitRate() float64 {
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(total)
}

// Result couples the schedule produced by a session call with its
// statistics.
type Result struct {
	// Pools is the schedule, one placement per task on the platform's
	// pools (nil when Optimal proves infeasibility).
	Pools *PoolSchedule
	// Stats are the structured statistics of the call.
	Stats Stats

	peaksOnce sync.Once
	peaks     []int64
}

// Makespan returns the schedule's makespan (+Inf when the result carries no
// schedule).
func (r *Result) Makespan() float64 { return r.Stats.Makespan }

// PeakResidency returns the peak memory residency of every pool, in pool
// order (blue then red on a dual platform): the schedule's MemoryPeaks, one sort and sweep of
// about 2n + 2·(cross edges) folded file events, under the tie rule that a
// file counts at t when it is acquired by t+Eps and not released by t+Eps.
// It is computed on first use and cached — except on successful
// WithWarmStart calls, which compute it eagerly so a warm-start chain can
// carry the peaks of fully replayed (hence bit-identical) schedules forward
// instead of sweeping again. Nil when the result carries no schedule.
func (r *Result) PeakResidency() []int64 {
	r.peaksOnce.Do(func() {
		if r.peaks == nil && r.Pools != nil { // else pre-seeded by a warm-start Schedule call
			r.peaks = r.Pools.MemoryPeaks()
		}
	})
	return r.peaks
}

// Validate re-checks every model constraint on the carried schedule.
func (r *Result) Validate() error {
	if r.Pools == nil {
		return errors.New("memsched: result carries no schedule")
	}
	return r.Pools.Validate()
}

// schedulers maps every registered scheduler name to its heuristic and
// whether it runs memory-oblivious (on the platform's unbounded twin): the
// four heuristics of the paper plus the insertion-policy ablation.
var schedulers = map[string]struct {
	run       multi.Func
	oblivious bool
}{
	"heft":              {multi.MemHEFT, true},
	"minmin":            {multi.MemMinMin, true},
	"memheft":           {multi.MemHEFT, false},
	"memminmin":         {multi.MemMinMin, false},
	"memheft-insertion": {multi.MemHEFTInsertion, false},
}

// Schedulers returns the names registered with the scheduler registry,
// sorted; WithScheduler accepts any of them (case-insensitively).
func Schedulers() []string {
	names := make([]string, 0, len(schedulers))
	for name := range schedulers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Schedule runs a list-scheduling heuristic for the session's graph on p
// and returns the schedule with statistics. The heuristic defaults to
// MemHEFT; select another with WithScheduler (see Schedulers for the
// registry). The context cancels the run cooperatively; heuristics that
// cannot fit the graph in memory return an error wrapping ErrMemoryBound.
//
// Schedule is safe for concurrent use, including concurrent calls on the
// same session.
func (s *Session) Schedule(ctx context.Context, p Platform, opts ...ScheduleOption) (*Result, error) {
	cfg := newScheduleConfig(opts)
	name := cfg.scheduler
	if cfg.insertion {
		if name != "memheft" {
			return nil, fmt.Errorf("memsched: WithInsertion requires the memheft scheduler, got %q", cfg.scheduler)
		}
		name = "memheft-insertion"
	}
	sch, ok := schedulers[name]
	if !ok {
		return nil, fmt.Errorf("memsched: unknown heuristic %q (registered: %s)", cfg.scheduler, strings.Join(Schedulers(), ", "))
	}
	ctx, cancel := cfg.withTimeout(ctx)
	defer cancel()
	ctx, phaseRec, finishPhases := beginPhases(ctx)
	defer finishPhases()
	start := time.Now()

	// heft/minmin run on the engine-effective unbounded platform and
	// record their traces against it.
	eff := p
	if sch.oblivious {
		eff = p.Unbounded()
	}
	var rs multi.RunStats
	mopt := multi.Options{Seed: cfg.seed, Caches: s.caches, Stats: &rs}
	var key warmKey
	var rec *multi.Trace
	var prev *warmEntry
	if cfg.warmStart && ReplayableScheduler(name) {
		key = warmKey{scheduler: name, seed: cfg.seed}
		if prev = s.lookupWarm(key); prev != nil {
			if prev.trace.FullReplayOn(eff) {
				// Margin shortcut: the recorded fit slacks prove every
				// step of the trace replays verbatim on eff, so the run
				// would reproduce the stored schedule bit for bit —
				// return a clone of it without running the engine. The
				// stored entry stays anchored at its recording platform,
				// keeping the margins exact for the rest of the chain.
				endClone := trace.Start(ctx, "clone")
				sched := prev.sched.Clone()
				sched.Platform = eff
				endClone()
				res := &Result{
					Pools: sched,
					Stats: Stats{
						Scheduler:          name,
						Makespan:           prev.makespan,
						PoolTasks:          append([]int(nil), prev.poolTasks...),
						ReplayedPlacements: len(prev.trace.Cands),
						WallTime:           time.Since(start),
					},
				}
				if phaseRec != nil {
					res.Stats.Phases = phasesOf(phaseRec)
				}
				res.peaks = append([]int64(nil), prev.peaks...)
				return res, nil
			}
			mopt.Replay = prev.trace
		}
		rec = &multi.Trace{Cands: make([]multi.Candidate, 0, s.g.NumTasks())}
		mopt.Record = rec
	}
	sched, err := sch.run(ctx, s.inst, eff, mopt)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Pools: sched,
		Stats: Stats{
			Scheduler:          name,
			Makespan:           rs.Makespan,
			CacheHits:          rs.CacheHits,
			CacheMisses:        rs.CacheMisses,
			PoolTasks:          rs.PoolTasks,
			ReplayedPlacements: rs.Replayed,
			ReplayTruncated:    rs.ReplayTruncated,
			WallTime:           time.Since(start),
		},
	}
	if phaseRec != nil {
		res.Stats.Phases = phasesOf(phaseRec)
	}
	if rec != nil && rec.Complete {
		// A replay that consumed the whole (complete) trace produced a
		// schedule bit-identical to the recorded one, so its peaks carry
		// over; otherwise compute them once here, serving both this
		// result's PeakResidency and the next replay in the chain.
		var peaks []int64
		if prev != nil && prev.trace.Complete && rs.Replayed == len(prev.trace.Cands) {
			peaks = prev.peaks
		} else {
			peaks = sched.MemoryPeaks()
		}
		s.putWarm(key, rec, sched, rs.Makespan, rs.PoolTasks, peaks)
		res.peaks = append([]int64(nil), peaks...)
	}
	return res, nil
}

// Optimal runs the branch-and-bound search for the best list schedule of
// the session's graph on p. The result's Stats report the nodes explored
// and whether optimality (over the list-schedule space) was proven; a nil
// Result.Pools with Stats.Proven means the instance is infeasible for every
// list schedule. Cancelling the context (or WithTimeout expiring) stops the
// search and reports the best incumbent, like an exhausted WithMaxNodes
// budget.
func (s *Session) Optimal(ctx context.Context, p Platform, opts ...ScheduleOption) (*Result, error) {
	cfg := newScheduleConfig(opts)
	ctx, phaseRec, finishPhases := beginPhases(ctx)
	defer finishPhases()
	start := time.Now()
	endSearch := trace.Start(ctx, "search")
	res, err := exact.Solve(ctx, s.inst, p, exact.Options{
		MaxNodes:  cfg.maxNodes,
		Timeout:   cfg.timeout,
		Incumbent: cfg.incumbent,
		Caches:    s.caches,
	})
	endSearch()
	if err != nil {
		return nil, err
	}
	out := &Result{
		Pools: res.Schedule,
		Stats: Stats{
			Scheduler: "optimal",
			Makespan:  res.Makespan,
			Nodes:     res.Nodes,
			Proven:    res.Status == exact.Optimal || res.Status == exact.Infeasible,
			WallTime:  time.Since(start),
		},
	}
	if phaseRec != nil {
		out.Stats.Phases = phasesOf(phaseRec)
	}
	return out, nil
}

// Simulate runs the online StarPU-style dispatcher for the session's graph
// on p and returns the emitted, validated schedule. Select the dispatch
// order with WithPolicy; a deadlocked run returns an error wrapping
// ErrSimStuck.
func (s *Session) Simulate(ctx context.Context, p Platform, opts ...ScheduleOption) (*Result, error) {
	cfg := newScheduleConfig(opts)
	ctx, cancel := cfg.withTimeout(ctx)
	defer cancel()
	ctx, phaseRec, finishPhases := beginPhases(ctx)
	defer finishPhases()
	start := time.Now()
	endDispatch := trace.Start(ctx, "dispatch")
	res, err := sim.Run(ctx, s.inst, p, sim.Options{Policy: cfg.policy, Seed: cfg.seed, Caches: s.caches})
	endDispatch()
	if err != nil {
		return nil, err
	}
	out := &Result{
		Pools: res.Schedule,
		Stats: Stats{
			Scheduler: "sim-" + cfg.policy.String(),
			Makespan:  res.Schedule.Makespan(),
			Events:    res.Events,
			WallTime:  time.Since(start),
		},
	}
	if phaseRec != nil {
		out.Stats.Phases = phasesOf(phaseRec)
	}
	return out, nil
}

// LowerBound returns a makespan lower bound valid for every schedule of the
// session's graph on p (critical path and aggregate work arguments, from
// each task's fastest pool).
func (s *Session) LowerBound(p Platform) (float64, error) {
	if err := s.caches.Validate(s.inst, p.NumPools()); err != nil {
		return 0, err
	}
	return exact.LowerBound(s.inst, p)
}
