package multi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dag"
	"repro/internal/trace"
)

// ErrMemoryBound is returned (wrapped) when a heuristic cannot fit the
// instance in the pool capacities.
var ErrMemoryBound = errors.New("memsched: graph cannot be processed within the memory bounds")

// Options tunes a heuristic run. The zero value is ready to use.
type Options struct {
	// Seed feeds the random tie-breaking of the ranking phase.
	Seed int64

	// Caches, when non-nil, serves the per-instance memos (mean ranks,
	// priority lists, statics, validation) owned by the caller —
	// typically a memsched.Session. A nil Caches computes everything
	// fresh.
	Caches *Caches

	// Stats, when non-nil, receives run statistics accumulated over the
	// run.
	Stats *RunStats

	// Record, when non-nil, receives this run's committed placement
	// sequence (reset first, Complete set only on full success) so a later
	// run can warm-start from it.
	Record *Trace

	// Replay, when non-nil, is a previously recorded trace whose verified
	// prefix is committed directly instead of re-deriving each decision.
	// Only consulted when the trace's platform is replay-eligible for this
	// run's platform (see ReplayEligible); every replayed step is
	// re-verified, so results are bit-identical either way. The trace is
	// read-only and must not be mutated while any run may still replay it.
	Replay *Trace
}

// RunStats carries the per-run statistics a heuristic reports through
// Options.Stats.
type RunStats struct {
	// CacheHits / CacheMisses count candidate evaluations served from the
	// epoch-invalidated (task, pool) memo vs recomputed.
	CacheHits, CacheMisses uint64
	// Makespan is the running-max makespan of the produced schedule.
	Makespan float64
	// PoolTasks is the number of tasks committed to each pool.
	PoolTasks []int
	// Replayed counts placements committed by verified warm-start replay
	// (Options.Replay) instead of a fresh decision scan.
	Replayed int
	// ReplayTruncated reports that a requested replay stopped before
	// consuming the whole trace — either the trace was ineligible for this
	// platform or a recorded decision no longer verified.
	ReplayTruncated bool
}

// Func is the common signature of the generalised heuristics.
type Func func(ctx context.Context, in *Instance, p Platform, opt Options) (*Schedule, error)

var inf = math.Inf(1)

// cancelStride is how many main-loop iterations pass between cooperative
// context checks: frequent enough to interrupt sweeps promptly, sparse
// enough to be invisible in the per-schedule benchmarks.
const cancelStride = 64

// ctxErr polls ctx every cancelStride-th step (nil ctx never cancels).
func ctxErr(ctx context.Context, step int) error {
	if ctx == nil || step%cancelStride != 0 {
		return nil
	}
	return ctx.Err()
}

// PriorityList returns tasks by non-increasing mean rank with seeded random
// tie-breaks. It is a pure function of (instance, seed); sessions memoize
// it per seed through Caches.PriorityList. The context (nil allowed) makes
// the ranking phase cooperatively cancellable.
func PriorityList(ctx context.Context, in *Instance, seed int64) ([]dag.TaskID, error) {
	ranks, err := in.MeanRanks(ctx)
	if err != nil {
		return nil, err
	}
	return priorityFromRanks(in, ranks, seed), nil
}

// wrapInterrupted labels a cancellation surfacing from the ranking/statics
// phase with the heuristic's name (matching the placement loops' wrapping);
// every other error passes through untouched.
func wrapInterrupted(name string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("multi: %s interrupted: %w", name, err)
	}
	return err
}

// priorityFromRanks is the sorting half of PriorityList, reused by the
// cache layer when the ranks are already memoized.
func priorityFromRanks(in *Instance, ranks []float64, seed int64) []dag.TaskID {
	rng := rand.New(rand.NewSource(seed))
	tieKey := rng.Perm(in.G.NumTasks())
	list := make([]dag.TaskID, in.G.NumTasks())
	for i := range list {
		list[i] = dag.TaskID(i)
	}
	sort.SliceStable(list, func(a, b int) bool {
		ra, rb := ranks[list[a]], ranks[list[b]]
		if ra != rb {
			return ra > rb
		}
		return tieKey[list[a]] < tieKey[list[b]]
	})
	return list
}

// MemHEFT is Algorithm 1 generalised to k pools: walk the priority list,
// schedule the first ready task that currently fits, restart from the head
// after every assignment.
//
// The scan is incremental: ready-ness checks are O(1), Best serves
// memoized candidates for entries whose pool epochs and parents are
// unchanged since the last pass, and scheduled tasks are skipped in place
// and compacted lazily. Commit order — and therefore the schedule — is
// identical to MemHEFTReference (see naive.go). The context is checked
// cooperatively; cancellation returns ctx.Err() wrapped.
func MemHEFT(ctx context.Context, in *Instance, p Platform, opt Options) (*Schedule, error) {
	return memHEFT(ctx, in, p, opt, false)
}

// memHEFT is MemHEFT, optionally with the insertion-based processor policy.
func memHEFT(ctx context.Context, in *Instance, p Platform, opt Options, insertion bool) (*Schedule, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("multi: MemHEFT interrupted: %w", err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Caches.Validate(in, p.NumPools()); err != nil {
		return nil, err
	}
	endRank := trace.Start(ctx, "rank")
	remaining, err := opt.Caches.PriorityList(ctx, in, opt.Seed)
	endRank()
	if err != nil {
		return nil, wrapInterrupted("MemHEFT", err)
	}
	endStatics := trace.Start(ctx, "statics")
	if err := opt.Caches.warmStatics(ctx, in); err != nil {
		return nil, wrapInterrupted("MemHEFT", err)
	}
	st := NewPartialCached(in, p, opt.Caches)
	endStatics()
	defer recycle(st)
	defer st.reportStats(opt.Stats)
	if insertion {
		st.ins = newInsertionState(p.TotalProcs())
	}
	rec := opt.Record
	endReplay := trace.Start(ctx, "replay")
	replayed, err := st.beginRun(ctx, p, opt)
	endReplay()
	if err != nil {
		return st.sched, fmt.Errorf("multi: MemHEFT interrupted: %w", err)
	}
	defer trace.Start(ctx, "placement")()
	left := len(remaining) - replayed
	head := 0 // index of the first unscheduled entry
	step := 0
	for left > 0 {
		if err := ctxErr(ctx, step); err != nil {
			return st.sched, fmt.Errorf("multi: MemHEFT interrupted: %w", err)
		}
		step++
		for head < len(remaining) && st.Assigned(remaining[head]) {
			head++
		}
		placed := false
		for _, id := range remaining[head:] {
			if !st.Ready(id) {
				continue
			}
			c := st.Best(id)
			if !c.Feasible() {
				continue
			}
			if rec != nil {
				// Before Commit: recordStep measures pre-commit fit slacks.
				st.recordStep(rec, c)
			}
			st.Commit(c)
			left--
			placed = true
			break
		}
		if !placed {
			// remaining[head] is the highest-priority unscheduled
			// task thanks to the head advance above.
			return st.sched, fmt.Errorf("%w (MemHEFT: %d of %d tasks unscheduled, first stuck task %d)",
				ErrMemoryBound, left, in.G.NumTasks(), remaining[head])
		}
		// Compact once half the list is scheduled: amortised O(n)
		// total instead of an O(n) mid-slice delete per assignment.
		if left > 0 && 2*left <= len(remaining)-head {
			out := remaining[:0]
			for _, id := range remaining[head:] {
				if !st.Assigned(id) {
					out = append(out, id)
				}
			}
			remaining = out
			head = 0
		}
	}
	if rec != nil {
		rec.Complete = true
	}
	return st.sched, nil
}

// MemMinMin is Algorithm 2 generalised to k pools: among all ready tasks,
// repeatedly commit the (task, pool) pair with the minimum earliest finish
// time.
//
// The ready candidates live in a heap ordered by (EFT, task ID) — the
// exact tie-breaking of the reference linear scan — with epoch-bucketed
// lazy invalidation: the refresh tracks which pool epochs moved since the
// last iteration, fully re-derives only entries whose incumbent pool
// moved, and probes just the moved pools for everyone else (a commit
// typically moves one or two of the k pools). The context is checked
// cooperatively; cancellation returns ctx.Err() wrapped.
func MemMinMin(ctx context.Context, in *Instance, p Platform, opt Options) (*Schedule, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("multi: MemMinMin interrupted: %w", err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Caches.Validate(in, p.NumPools()); err != nil {
		return nil, err
	}
	endStatics := trace.Start(ctx, "statics")
	if err := opt.Caches.warmStatics(ctx, in); err != nil {
		return nil, wrapInterrupted("MemMinMin", err)
	}
	st := NewPartialCached(in, p, opt.Caches)
	endStatics()
	defer recycle(st)
	defer st.reportStats(opt.Stats)
	g := in.G

	// Warm-start: replay the verified prefix of a previous run before the
	// heap is built, so the heap starts from the post-replay ready set.
	rec := opt.Record
	endReplay := trace.Start(ctx, "replay")
	replayed, err := st.beginRun(ctx, p, opt)
	endReplay()
	if err != nil {
		return st.sched, fmt.Errorf("multi: MemMinMin interrupted: %w", err)
	}

	defer trace.Start(ctx, "placement")()
	h := make(eftHeap, 0, g.NumTasks())
	for _, id := range st.ReadyTasks() {
		h = append(h, eftEntry{id: id, cand: st.Best(id)})
	}
	h.init()

	// Epoch-bucketed refresh state: every heap entry is a ready task, so
	// its parents are all committed and its parent stamp can never move
	// again — staleness comes only from pool epochs. Tracking the epochs
	// seen at the last refresh tells us exactly which pools mutated since,
	// so the refresh recomputes the full Best only for entries whose
	// memoized best sits on a moved pool, and for every other entry
	// evaluates just the moved pools (served from the candidate memo when
	// unchanged), instead of probing all k slots of every entry.
	epochSeen := make([]uint64, st.k)
	copy(epochSeen, st.epoch)
	moved := make([]int, 0, st.k)

	scheduled := replayed
	for len(h) > 0 {
		if err := ctxErr(ctx, scheduled); err != nil {
			return st.sched, fmt.Errorf("multi: MemMinMin interrupted: %w", err)
		}
		// Lazy invalidation: refresh candidates invalidated by moved pool
		// epochs, then restore the heap order in one pass.
		moved = moved[:0]
		for k := 0; k < st.k; k++ {
			if st.epoch[k] != epochSeen[k] {
				moved = append(moved, k)
				epochSeen[k] = st.epoch[k]
			}
		}
		changed := false
		if len(moved) > 0 {
			for i := range h {
				e := &h[i]
				if e.cand.Pool >= 0 && poolMoved(moved, e.cand.Pool) {
					// The incumbent pool itself mutated: its EFT may
					// have grown, so the full argmin must be redone.
					if nb := st.Best(e.id); nb != e.cand {
						e.cand = nb
						changed = true
					}
					continue
				}
				// The incumbent pool is unchanged, so the memoized best
				// still beats every unmoved pool; only a moved pool can
				// displace it — with Best's exact lowest-pool tie-break.
				for _, k := range moved {
					c := st.Evaluate(e.id, k)
					if c.EFT < e.cand.EFT || (c.EFT == e.cand.EFT && k < e.cand.Pool) {
						e.cand = c
						changed = true
					}
				}
			}
		}
		if changed {
			h.init()
		}
		best := h[0]
		if !best.cand.Feasible() {
			// The heap minimum is infeasible, hence so is every
			// ready task.
			return st.sched, fmt.Errorf("%w (MemMinMin: %d of %d tasks unscheduled, %d ready tasks all blocked)",
				ErrMemoryBound, g.NumTasks()-scheduled, g.NumTasks(), len(h))
		}
		if rec != nil {
			// Before Commit: recordStep measures pre-commit fit slacks.
			st.recordStep(rec, best.cand)
		}
		st.Commit(best.cand)
		scheduled++
		h.popMin()
		for _, child := range st.NewlyReady() {
			h.push(eftEntry{id: child, cand: st.Best(child)})
		}
	}
	if scheduled != g.NumTasks() {
		// Unreachable for a validated DAG; defensive.
		return st.sched, fmt.Errorf("multi: MemMinMin scheduled %d of %d tasks", scheduled, g.NumTasks())
	}
	if rec != nil {
		rec.Complete = true
	}
	return st.sched, nil
}

// poolMoved reports whether pool k is in the (short, ascending) moved list.
func poolMoved(moved []int, k int) bool {
	for _, m := range moved {
		if m == k {
			return true
		}
	}
	return false
}

// eftEntry is one ready task with its memoized best candidate.
type eftEntry struct {
	id   dag.TaskID
	cand Candidate
}

// eftHeap is a binary min-heap of ready candidates ordered by (EFT, task
// ID), matching the tie-breaking of the naive scan. Infeasible candidates
// carry EFT = +inf and sink to the bottom; inf comparisons are always
// false, so ties fall through to the ID order, which keeps the comparator
// strict and total.
type eftHeap []eftEntry

func (h eftHeap) less(a, b int) bool {
	if h[a].cand.EFT != h[b].cand.EFT {
		return h[a].cand.EFT < h[b].cand.EFT
	}
	return h[a].id < h[b].id
}

func (h eftHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h eftHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h.less(l, m) {
			m = l
		}
		if r < len(h) && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h *eftHeap) push(e eftEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eftHeap) popMin() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	if n > 0 {
		s.siftDown(0)
	}
}
