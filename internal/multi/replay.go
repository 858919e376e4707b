package multi

import (
	"context"
	"math"

	"repro/internal/platform"
)

// Trace records the committed placement sequence of one heuristic run so a
// later run on a platform with equal pool shapes and no larger capacities
// can replay the prefix instead of re-deriving it. Traces are recorded
// through Options.Record and consumed through Options.Replay; a stored trace
// must never be mutated afterwards (replay reads it concurrently from
// forked sessions).
//
// Replay is sound only downward in capacity: with an identical committed
// prefix, every staircase holds less free memory under a smaller capacity,
// so earliest-fit times — and hence every candidate's EST/EFT — are
// monotone non-decreasing, and a task that was infeasible stays infeasible.
// Each replayed step is verified against the live state (replayVerify); the
// first step that fails truncates the replay and the normal scheduling loop
// resumes from the verified prefix, which keeps the result bit-identical to
// a from-scratch run.
type Trace struct {
	// Platform is the platform the trace was recorded on — for HEFT and
	// MinMin the engine-effective unbounded platform, not the nominal one.
	Platform Platform
	// Cands is the commit sequence: one fully resolved candidate per task
	// in commit order.
	Cands []Candidate
	// Complete reports whether the recorded run scheduled every task.
	Complete bool
	// MinMargin[k] is the minimum, over the recorded steps placed on pool
	// k, of the slack each step's memory fits had when committed
	// (math.MaxInt64 when no bounded fit was recorded on k, -1 when the
	// margins of a mirrored prefix could not be derived). It powers the
	// FullReplayOn shortcut.
	MinMargin []int64
}

// ReplayEligible reports whether a trace recorded on prev may be replayed
// on next: same pool count, identical per-pool processor counts, and no
// capacity grown. Shrinking capacities only delays or blocks placements —
// with an identical committed prefix every staircase holds less free
// memory, so earliest-fit times are monotone non-decreasing and blocked
// tasks stay blocked — which the per-step verification catches exactly;
// growing a capacity can unblock a previously skipped task, which replay
// cannot see, so it is rejected. Any two unlimited capacities compare
// equal regardless of their numeric encoding.
func ReplayEligible(prev, next Platform) bool {
	if len(prev.Pools) != len(next.Pools) {
		return false
	}
	for k := range prev.Pools {
		if prev.Pools[k].Procs != next.Pools[k].Procs {
			return false
		}
		pc, nc := prev.Pools[k].Capacity, next.Pools[k].Capacity
		if nc >= platform.Unlimited {
			if pc < platform.Unlimited {
				return false
			}
			continue
		}
		if nc > pc {
			return false
		}
	}
	return true
}

// beginRun applies the warm-start options to a freshly reset Partial:
// resets the recording trace, replays the verified prefix of opt.Replay
// when the trace is eligible for p, mirrors the replayed prefix into the
// recording, and reports the replay counters. It returns the number of
// placements committed by replay; the only error is cooperative
// cancellation mid-replay.
func (st *Partial) beginRun(ctx context.Context, p Platform, opt Options) (int, error) {
	if rec := opt.Record; rec != nil {
		rec.Platform = p
		rec.Cands = rec.Cands[:0]
		rec.Complete = false
		rec.MinMargin = rec.MinMargin[:0]
		for range p.Pools {
			rec.MinMargin = append(rec.MinMargin, int64(math.MaxInt64))
		}
	}
	replayed := 0
	if tr := opt.Replay; tr != nil && ReplayEligible(tr.Platform, p) {
		var err error
		replayed, err = st.replayPrefix(ctx, tr)
		if err != nil {
			return replayed, err
		}
		if rec := opt.Record; rec != nil && replayed > 0 {
			rec.Cands = append(rec.Cands, tr.Cands[:replayed]...)
			for k := range rec.MinMargin {
				tm := int64(-1) // foreign trace without margins: never shortcut
				if k < len(tr.MinMargin) {
					tm = tr.MinMargin[k]
				}
				if m := prefixMargin(tr.Platform.Pools[k].Capacity, p.Pools[k].Capacity, tm); m < rec.MinMargin[k] {
					rec.MinMargin[k] = m
				}
			}
		}
	}
	if opt.Stats != nil && opt.Replay != nil {
		opt.Stats.Replayed += replayed
		opt.Stats.ReplayTruncated = replayed < len(opt.Replay.Cands)
	}
	return replayed, nil
}

// replayPrefix commits the longest verified prefix of tr onto st and
// returns its length. Each step is verified by replayVerify — much cheaper
// than re-deriving the decision, and equally exact — so a full replay costs
// little more than the commits themselves; the first step that no longer
// verifies stops the replay and the caller's normal loop takes over.
func (st *Partial) replayPrefix(ctx context.Context, tr *Trace) (int, error) {
	for i := range tr.Cands {
		if err := ctxErr(ctx, i); err != nil {
			return i, err
		}
		rc := tr.Cands[i]
		if !rc.Feasible() || !st.Ready(rc.Task) {
			return i, nil
		}
		if !st.replayVerify(rc) {
			return i, nil
		}
		st.Commit(rc)
	}
	return len(tr.Cands), nil
}

// replayVerify decides, without re-evaluating any candidate, whether the
// recorded candidate rc is still bit-exactly what the engine would compute
// and commit at this position. It rests on two invariants of an eligible
// replay (same pool shapes, capacities not grown, identical verified prefix
// — the session guarantees the trace comes from the same instance,
// scheduler and seed):
//
//   - every non-staircase EST component (processor availability,
//     precedence_EST, C(mu,i)) is a pure function of the committed prefix,
//     so it matches the recording run bit for bit;
//   - the staircases carry the recording run's exact reservations over a
//     capacity that did not grow, so free(t) only shrank: every
//     earliest-fit time is monotone non-decreasing and an infeasible
//     candidate stays infeasible.
//
// The recorded EST therefore remains exact iff both fits of rc's pool still
// hold at their recorded positions, and no other pool needs evaluation:
// each one's EFT was no better than rc's when recorded (strictly worse for
// lower pool indices, by the lowest-pool tie-break) and can only have grown
// since. The same monotonicity keeps every higher-priority task MemHEFT
// skipped skipped, and every ready pair MemMinMin rejected rejected, so the
// engines' selection order is preserved too.
func (st *Partial) replayVerify(rc Candidate) bool {
	k := rc.Pool
	_, cross, cmu := st.staticFor(rc.Task, k)
	if cmu != rc.CMu {
		return false // not this prefix's recording; fall back to scratch
	}
	if st.unbounded[k] {
		return true
	}
	if need := cross + st.outFiles[rc.Task]; need != 0 && !st.free[k].FitsFrom(rc.EST, need) {
		return false
	}
	return cross == 0 || st.free[k].FitsFrom(rc.EST-cmu, cross)
}

// recordStep appends c to the recording trace together with the pre-commit
// slack of its memory fits, folded into rec.MinMargin. Engines call it in
// place of a plain append, immediately before Commit(c): the slacks must be
// measured on the staircase the fits were evaluated against.
func (st *Partial) recordStep(rec *Trace, c Candidate) {
	rec.Cands = append(rec.Cands, c)
	k := c.Pool
	if st.unbounded[k] {
		return
	}
	_, cross, cmu := st.staticFor(c.Task, k)
	if need := cross + st.outFiles[c.Task]; need > 0 {
		if m := st.free[k].SlackAt(c.EST) - need; m < rec.MinMargin[k] {
			rec.MinMargin[k] = m
		}
	}
	if cross > 0 {
		if m := st.free[k].SlackAt(c.EST-cmu) - cross; m < rec.MinMargin[k] {
			rec.MinMargin[k] = m
		}
	}
}

// prefixMargin translates a recorded margin to the capacity a prefix of the
// trace was just replayed on: the replay committed the recorded reservations
// bit for bit, so its staircase equals the recording run's shifted down by
// delta = prevCap - nextCap, and every recorded slack shrank by exactly
// delta. Using the whole-trace minimum for a (possibly shorter) prefix is
// conservative — the prefix's true margin can only be larger. A bounded
// replay of an unbounded recording verified against staircases whose slacks
// were never captured, so it degrades to -1 (blocks FullReplayOn forever,
// which is safe: margins are never negative when known).
func prefixMargin(prevCap, nextCap, margin int64) int64 {
	if nextCap >= platform.Unlimited {
		return margin // nothing shrank (eligibility: prevCap is unlimited too)
	}
	if prevCap >= platform.Unlimited {
		return -1
	}
	return margin - (prevCap - nextCap)
}

// FullReplayOn reports whether replaying the complete trace on next is
// guaranteed to verify every step, making the run's schedule bit-identical
// to the recorded one — so a caller holding that schedule can reuse it
// without running the engine at all. Soundness: under an eligible shrink the
// replaying run's staircases hold the recorded reservations over a capacity
// smaller by delta(k) = recorded cap - next cap, so every suffix minimum —
// and with it every recorded fit slack — drops by exactly delta(k); the
// per-step FitsFrom checks of replayVerify therefore all still pass iff
// delta(k) <= MinMargin[k] for every pool. The remaining per-step checks
// (feasibility, readiness, C(mu,i)) are pure functions of the shared graph
// and the identical committed prefix and hold by induction.
func (tr *Trace) FullReplayOn(next Platform) bool {
	if tr == nil || !tr.Complete || !ReplayEligible(tr.Platform, next) {
		return false
	}
	if len(tr.MinMargin) != len(next.Pools) {
		return false
	}
	for k := range next.Pools {
		if !marginOK(tr.Platform.Pools[k].Capacity, next.Pools[k].Capacity, tr.MinMargin[k]) {
			return false
		}
	}
	return true
}

// marginOK is the per-pool margin check of FullReplayOn.
func marginOK(prevCap, nextCap, margin int64) bool {
	if nextCap >= platform.Unlimited {
		return true // eligibility guarantees prevCap is unlimited too
	}
	if prevCap >= platform.Unlimited {
		return false // a bounded run of an unbounded recording must verify per step
	}
	return prevCap-nextCap <= margin
}
