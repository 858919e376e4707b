package memsched

import (
	"context"
	"fmt"

	"repro/internal/core"
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

// maxWarmTraces bounds the per-engine trace store of a session. A sweep
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

// dualWarm is one stored dual-engine warm entry: the recorded trace, a
// private clone of the schedule it produced with its makespan, and the peak
// memory residencies of that schedule. When a later run replays the complete
// trace its schedule is bit-identical to the recorded one, so the stored
// peaks let it skip the MemoryPeaks sweep, a sort of about 2n + 2·(cross
// edges) folded file events; when the trace's fit margins prove the whole
// replay up front (Trace.FullReplayOn), the stored schedule is cloned out
// directly and the engine never runs. All fields are immutable once stored.
type dualWarm struct {
	trace    *core.Trace
	sched    *Schedule // private clone; never handed out directly
	makespan float64
	peaks    []int64 // blue, red
}

// multiWarm mirrors dualWarm for the k-pool engine, with the per-pool task
// counts the engine would have reported.
type multiWarm struct {
	trace     *multi.Trace
	sched     *PoolSchedule // private clone; never handed out directly
	makespan  float64
	poolTasks []int
	peaks     []int64 // per pool
}

// dualWarmEntry returns the stored dual-engine entry of k (nil when
// absent). The returned entry is immutable and safe to read concurrently.
func (s *Session) dualWarmEntry(k warmKey) *dualWarm {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	return s.warmDual[k]
}

// putDualWarm stores tr with a private clone of the schedule it produced,
// its makespan and its peaks under k, replacing any previous entry.
// Incomplete traces (failed or interrupted runs) are dropped: replaying a
// prefix of a run that did not finish could diverge from a from-scratch run
// in ways the per-step verification never gets to check.
func (s *Session) putDualWarm(k warmKey, tr *core.Trace, sched *Schedule, makespan float64, peaks []int64) {
	if tr == nil || !tr.Complete {
		return
	}
	entry := &dualWarm{trace: tr, sched: sched.Clone(), makespan: makespan, peaks: peaks}
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	if s.warmDual == nil {
		s.warmDual = make(map[warmKey]*dualWarm, maxWarmTraces)
	}
	if _, ok := s.warmDual[k]; !ok {
		for len(s.warmDual) >= maxWarmTraces {
			for victim := range s.warmDual {
				delete(s.warmDual, victim)
				break
			}
		}
	}
	s.warmDual[k] = entry
}

// multiWarmEntry and putMultiWarm mirror the dual-engine store for the
// k-pool engine.
func (s *Session) multiWarmEntry(k warmKey) *multiWarm {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	return s.warmMulti[k]
}

func (s *Session) putMultiWarm(k warmKey, tr *multi.Trace, sched *PoolSchedule, makespan float64, poolTasks []int, peaks []int64) {
	if tr == nil || !tr.Complete {
		return
	}
	entry := &multiWarm{
		trace:     tr,
		sched:     sched.Clone(),
		makespan:  makespan,
		poolTasks: append([]int(nil), poolTasks...),
		peaks:     peaks,
	}
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	if s.warmMulti == nil {
		s.warmMulti = make(map[warmKey]*multiWarm, maxWarmTraces)
	}
	if _, ok := s.warmMulti[k]; !ok {
		for len(s.warmMulti) >= maxWarmTraces {
			for victim := range s.warmMulti {
				delete(s.warmMulti, victim)
				break
			}
		}
	}
	s.warmMulti[k] = entry
}

// WarmUp precomputes everything a Schedule call and every warm fork inherit
// — validation, graph statics, mean ranks and the priority list of each
// given seed (default seed 0) — with cooperative cancellation, so the
// session's first scheduling call and every Fork taken afterwards start
// fully warm. Dual sessions warm the dual-engine memos; WithPoolTimes
// sessions warm the k-pool memos. Calling WarmUp is never required:
// everything it computes is also computed lazily.
func (s *Session) WarmUp(ctx context.Context, seeds ...int64) error {
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	if s.times == nil {
		err = s.caches.Warm(ctx, s.g, seeds)
	} else {
		err = s.mcaches.Warm(ctx, s.instance(), seeds)
	}
	if err != nil {
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
