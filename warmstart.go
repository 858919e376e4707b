package memsched

import (
	"context"
	"fmt"

	"repro/internal/multi"
)

// This file holds the warm-start surface of a Session: the replay-trace
// store behind WithWarmStart, the WarmUp precomputation entry point and the
// platform-eligibility predicate of capacity-delta replay.

// warmKey identifies one replay trace: traces are only exchanged between
// runs of the same scheduler with the same tie-break seed, where the
// committed placement sequence is a pure function of the platform.
type warmKey struct {
	scheduler string
	seed      int64
}

// maxWarmTraces bounds the trace store of a session. A sweep
// chain uses one key at a time (a handful across schedulers and seeds);
// beyond the bound an arbitrary entry is evicted, which only costs the next
// warm-started run its replay.
const maxWarmTraces = 8

// ReplayableScheduler reports whether the named scheduler supports
// WithWarmStart trace record/replay: the four list schedulers whose commit
// loops verify recorded candidates step by step ("memheft", "memminmin",
// "heft", "minmin"). The insertion ablation is excluded — its commits
// depend on idle-gap state a trace does not capture. WithWarmStart is
// silently inert for every other scheduler.
func ReplayableScheduler(name string) bool {
	switch name {
	case "memheft", "memminmin", "heft", "minmin":
		return true
	}
	return false
}

// warmEntry is one stored warm entry: the recorded trace, a private clone
// of the schedule it produced with its makespan and per-pool task counts,
// and the peak memory residencies of that schedule. When a later run
// replays the complete trace its schedule is bit-identical to the recorded
// one, so the stored peaks let it skip the MemoryPeaks sweep, a sort of
// about 2n + 2·(cross edges) folded file events; when the trace's fit
// margins prove the whole replay up front (Trace.FullReplayOn), the stored
// schedule is cloned out directly and the engine never runs. All fields are
// immutable once stored.
type warmEntry struct {
	trace     *multi.Trace
	sched     *PoolSchedule // private clone; never handed out directly
	makespan  float64
	poolTasks []int
	peaks     []int64 // per pool
}

// lookupWarm returns the stored entry of k (nil when absent). The returned
// entry is immutable and safe to read concurrently.
func (s *Session) lookupWarm(k warmKey) *warmEntry {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	return s.warm[k]
}

// putWarm stores tr with a private clone of the schedule it produced, its
// makespan, per-pool task counts and peaks under k, replacing any previous
// entry. Incomplete traces (failed or interrupted runs) are dropped:
// replaying a prefix of a run that did not finish could diverge from a
// from-scratch run in ways the per-step verification never gets to check.
func (s *Session) putWarm(k warmKey, tr *multi.Trace, sched *PoolSchedule, makespan float64, poolTasks []int, peaks []int64) {
	if tr == nil || !tr.Complete {
		return
	}
	entry := &warmEntry{
		trace:     tr,
		sched:     sched.Clone(),
		makespan:  makespan,
		poolTasks: append([]int(nil), poolTasks...),
		peaks:     peaks,
	}
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	if s.warm == nil {
		s.warm = make(map[warmKey]*warmEntry, maxWarmTraces)
	}
	if _, ok := s.warm[k]; !ok {
		for len(s.warm) >= maxWarmTraces {
			for victim := range s.warm {
				delete(s.warm, victim)
				break
			}
		}
	}
	s.warm[k] = entry
}

// WarmUp precomputes everything a Schedule call and every warm fork inherit
// — graph statics, mean ranks and the priority list of each given seed
// (default seed 0) — with cooperative cancellation, so the session's first
// scheduling call and every Fork taken afterwards start fully warm. Calling
// WarmUp is never required: everything it computes is also computed
// lazily.
func (s *Session) WarmUp(ctx context.Context, seeds ...int64) error {
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.caches.Warm(ctx, s.inst, seeds); err != nil {
		return fmt.Errorf("memsched: warm-up interrupted: %w", err)
	}
	return nil
}

// ReplayEligible reports whether a warm-start trace recorded on prev may be
// replayed on next: same pool count, identical per-pool processor counts,
// and no capacity grown (two Unlimited capacities compare equal regardless
// of their numeric encoding). Shrinking capacities only delays or blocks
// placements, which the per-step replay verification catches exactly;
// growing one can unblock a previously skipped task, which replay cannot
// see, so it is rejected. The sweep engine orders each point chain by
// descending total capacity so adjacent points stay eligible.
func ReplayEligible(prev, next Platform) bool {
	return multi.ReplayEligible(prev, next)
}
