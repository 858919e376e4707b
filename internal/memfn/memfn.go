// Package memfn implements the staircase "available memory over time"
// functions that drive the memory-aware heuristics of the paper (§5.1).
//
// A Staircase represents a piecewise-constant function free(t) over
// [0, +inf). The paper stores it as a list of couples [(x1,v1),...,(xl,vl)]
// with free(t) = vi on [xi, xi+1) and free(t) = vl for t >= xl; this package
// uses the same representation. The two operations the heuristics need are
// Reserve (commit memory on an interval, possibly unbounded) and EarliestFit
// (the smallest t such that free(t') >= need for every t' >= t), which
// realises the task_mem_EST and comm_mem_EST primitives of Algorithm 1.
//
// Performance notes. EarliestFit is the hot primitive: every candidate
// evaluation of MemHEFT/MemMinMin calls it twice. The paper's backward walk
// is O(l); this implementation instead maintains a suffix-minimum array
// sufmin[i] = min(v[i..l-1]) (rebuilt lazily after mutations) which is
// non-decreasing in i, so the fit point is found by binary search in
// O(log l). The walk is kept as EarliestFitLinear, the reference oracle for
// tests. Mutations arrive in bursts (one Commit touches one staircase with
// up to deg+1 reservations), so ReserveBatch applies a whole set of deltas
// in a single merge pass over the pieces instead of deg+1 independent
// breakpoint insertions.
//
// Live window. A list scheduler's queries move forward in time, so most of
// a long schedule's staircase lies where no later query can reach.
// Forget(t) drops the pieces before the one holding t: values and suffix
// minima on [t, +inf) are kept, the first kept piece is stretched back to
// time 0, and every query at or after t, and every EarliestFit clamped to
// t, answers as on the whole function. The paper's l is then the length of
// the live window rather than of the schedule's whole history.
package memfn

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Inf is the positive-infinity time used for unbounded reservations.
var Inf = math.Inf(1)

type step struct {
	t float64 // start of the interval
	v int64   // free memory on [t, next.t)
}

// Staircase is a piecewise-constant free-memory function. The zero value is
// not usable; call New.
type Staircase struct {
	steps []step // sorted by t; steps[0].t == 0 always

	// sufmin[i] = min(steps[i..].v), fully valid only when sufminOK. It
	// is repaired lazily on the first EarliestFit after a mutation burst.
	// Mutations are suffix-local (schedulers commit near the time
	// frontier), so dirtyFrom records the first piece index touched since
	// the last repair: entries below it still match the unchanged prefix
	// and are reused, entries from it on are recomputed, and the repair
	// propagates leftwards only as far as the suffix minimum actually
	// changed.
	sufmin    []int64
	sufminOK  bool
	dirtyFrom int

	// Scratch buffers reused across ReserveBatch calls.
	evScratch   []batchEvent
	stepScratch []step
	oneOp       [1]Delta
}

// New returns the constant function free(t) = capacity.
func New(capacity int64) *Staircase {
	return &Staircase{steps: []step{{t: 0, v: capacity}}}
}

// Reset reinitialises the staircase to the constant function
// free(t) = capacity, reusing its storage. Engines that recycle partial
// schedules across runs (the k-pool session pool) use it to avoid
// reallocating the breakpoint arrays on every schedule.
func (s *Staircase) Reset(capacity int64) {
	s.steps = append(s.steps[:0], step{t: 0, v: capacity})
	s.sufmin = s.sufmin[:0]
	s.sufminOK = false
	s.dirtyFrom = 0
}

// Clone returns an independent copy.
func (s *Staircase) Clone() *Staircase { return s.CloneInto(nil) }

// CloneInto copies s into dst, reusing dst's storage when possible, and
// returns dst. A nil dst allocates a fresh Staircase. The scratch buffers of
// dst are kept (they carry no state between operations).
func (s *Staircase) CloneInto(dst *Staircase) *Staircase {
	if dst == nil {
		dst = &Staircase{}
	}
	dst.steps = append(dst.steps[:0], s.steps...)
	dst.sufminOK = s.sufminOK
	dst.dirtyFrom = s.dirtyFrom
	dst.sufmin = append(dst.sufmin[:0], s.sufmin...)
	return dst
}

// Len returns the number of constant pieces (the paper's l).
func (s *Staircase) Len() int { return len(s.steps) }

// Value returns free(t). Times before 0 are clamped to 0.
func (s *Staircase) Value(t float64) int64 {
	if t < 0 {
		t = 0
	}
	return s.steps[s.indexAt(t)].v
}

// FinalValue returns the value of the last piece, i.e. free(+inf).
func (s *Staircase) FinalValue() int64 { return s.steps[len(s.steps)-1].v }

// MinValue returns the global minimum of the function.
func (s *Staircase) MinValue() int64 {
	if s.sufminOK {
		return s.sufmin[0]
	}
	m := s.steps[0].v
	for _, st := range s.steps[1:] {
		if st.v < m {
			m = st.v
		}
	}
	return m
}

// MinOn returns the minimum of free over [from, to). An empty interval
// returns the value at from. to may be Inf.
func (s *Staircase) MinOn(from, to float64) int64 {
	if from < 0 {
		from = 0
	}
	m := s.Value(from)
	for _, st := range s.steps {
		if st.t <= from {
			continue
		}
		if st.t >= to {
			break
		}
		if st.v < m {
			m = st.v
		}
	}
	return m
}

// indexAtFromEnd returns the index of the piece containing time t (t >= 0),
// galloping backwards from the last piece before binary-searching: the
// schedulers mutate near the time frontier, so the few adjacent probes
// usually bracket t without walking the whole breakpoint array.
func (s *Staircase) indexAtFromEnd(t float64) int {
	steps := s.steps
	hi := len(steps) - 1
	if steps[hi].t <= t {
		return hi
	}
	// Invariant from here: steps[hi].t > t and steps[lo].t <= t (the
	// first piece starts at 0 and t is clamped non-negative).
	stride := 1
	lo := hi - stride
	for lo > 0 && steps[lo].t > t {
		hi = lo
		stride *= 2
		lo = hi - stride
		if lo < 0 {
			lo = 0
		}
	}
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if steps[mid].t <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// indexAt returns the index of the piece containing time t (t >= 0).
func (s *Staircase) indexAt(t float64) int {
	lo, hi := 0, len(s.steps)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.steps[mid].t <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Forget thresholds: a Forget drops its prefix only when the prefix holds
// at least forgetMin pieces and at least half of the staircase, so the
// copy that moves the kept pieces to the front costs amortised O(1) per
// dropped piece.
const forgetMin = 32

// Forget drops the pieces before the one that holds t and moves the first
// kept piece's start to 0, when that prefix is at least forgetMin pieces
// and at least half the staircase; otherwise it does nothing. Afterwards
// Value, FitsFrom and SlackAt at any time >= t, FinalValue, and
// max(EarliestFit(lb, need), t) all answer as before, and keep doing so
// through later Reserve, Release and ReserveBatch calls, including ones
// that start before t: those only change values on [0, t), which the
// staircase no longer represents. Times t must not decrease from one
// Forget to the next, and the caller must not query before its latest t.
func (s *Staircase) Forget(t float64) {
	i := s.indexAtFromEnd(max(t, 0))
	if i < forgetMin || 2*i < len(s.steps) {
		return
	}
	kept := copy(s.steps, s.steps[i:])
	s.steps = s.steps[:kept]
	s.steps[0].t = 0
	// Suffix minima depend only on the suffix, so the kept entries stay
	// valid; entries from dirtyFrom on were stale before and still are.
	if len(s.sufmin) > i {
		s.sufmin = s.sufmin[:copy(s.sufmin, s.sufmin[i:])]
	} else {
		s.sufmin = s.sufmin[:0]
	}
	s.dirtyFrom = max(s.dirtyFrom-i, 0)
}

// Reserve subtracts amount from free on [from, to). A negative amount
// releases memory. to may be Inf for an open-ended reservation (the typical
// case for output files whose consumer is not scheduled yet). Reservations
// are allowed to drive the function negative; callers that must respect a
// bound check EarliestFit or MinOn first.
func (s *Staircase) Reserve(from, to float64, amount int64) {
	s.oneOp[0] = Delta{From: from, To: to, Amount: amount}
	s.ReserveBatch(s.oneOp[:])
}

// Release adds amount back to free from time t onward. It is the standard
// way to return an open-ended reservation (an input file consumed at t, or a
// cross-memory file whose transfer completes at t).
func (s *Staircase) Release(t float64, amount int64) {
	s.Reserve(t, Inf, -amount)
}

// Delta is one interval reservation for ReserveBatch: subtract Amount from
// free on [From, To). A negative Amount releases; To may be Inf.
type Delta struct {
	From, To float64
	Amount   int64
}

// batchEvent is a value change at time t in the sweep of ReserveBatch.
type batchEvent struct {
	t float64
	d int64
}

// ReserveBatch applies a set of reservations in one merge pass over the
// pieces. It is equivalent to calling Reserve once per delta (the staircase
// is canonical after coalescing, so the results are identical) but costs
// O(l + k log k) for k deltas instead of O(k·l). Commit uses it to splice a
// task's whole set of file reservations at once.
func (s *Staircase) ReserveBatch(ops []Delta) {
	evs := s.evScratch[:0]
	for _, op := range ops {
		if op.Amount == 0 || op.To <= op.From {
			continue
		}
		from := op.From
		if from < 0 {
			from = 0
		}
		if op.To <= from {
			continue
		}
		evs = append(evs, batchEvent{t: from, d: -op.Amount})
		if !math.IsInf(op.To, 1) {
			evs = append(evs, batchEvent{t: op.To, d: op.Amount})
		}
	}
	s.evScratch = evs[:0]
	if len(evs) == 0 {
		return
	}
	// One Commit combines to a handful of events, so a branch-light
	// insertion sort beats the general sorter; fall back for big batches.
	if len(evs) <= 32 {
		for i := 1; i < len(evs); i++ {
			for j := i; j > 0 && evs[j].t < evs[j-1].t; j-- {
				evs[j], evs[j-1] = evs[j-1], evs[j]
			}
		}
	} else {
		slices.SortFunc(evs, func(a, b batchEvent) int {
			switch {
			case a.t < b.t:
				return -1
			case a.t > b.t:
				return 1
			}
			return 0
		})
	}

	// The pieces strictly before the one containing the first event keep
	// both their index and their value: merge only the suffix from that
	// piece on, coalescing on the fly (a piece is emitted only when its
	// value differs from the previously emitted one), then splice the
	// merged suffix back in place. Schedulers commit near the time
	// frontier, so the untouched prefix is most of the staircase.
	steps := s.steps
	i0 := s.indexAtFromEnd(evs[0].t)
	out := s.stepScratch[:0]
	if cap(out) < len(steps)-i0+len(evs) {
		out = make([]step, 0, 2*(len(steps)+len(evs)))
	}
	var lastV int64
	haveLast := i0 > 0
	if haveLast {
		lastV = steps[i0-1].v
	}
	var delta int64
	ei := 0
	for i := i0; i < len(steps); i++ {
		stp := steps[i]
		next := Inf
		if i+1 < len(steps) {
			next = steps[i+1].t
		}
		for ei < len(evs) && evs[ei].t == stp.t {
			delta += evs[ei].d
			ei++
		}
		if v := stp.v + delta; !haveLast || v != lastV {
			out = append(out, step{t: stp.t, v: v})
			lastV, haveLast = v, true
		}
		for ei < len(evs) && evs[ei].t < next {
			t := evs[ei].t
			for ei < len(evs) && evs[ei].t == t {
				delta += evs[ei].d
				ei++
			}
			if v := stp.v + delta; v != lastV {
				out = append(out, step{t: t, v: v})
				lastV = v
			}
		}
		if ei == len(evs) {
			// No events left: the remaining pieces all shift by the
			// same delta, so their pairwise differences — and hence
			// canonical form — are preserved; only the first may
			// coalesce into the previously emitted piece.
			for i++; i < len(steps); i++ {
				stp := steps[i]
				if v := stp.v + delta; v != lastV {
					out = append(out, step{t: stp.t, v: v})
					lastV = v
				}
			}
			break
		}
	}
	s.steps = append(steps[:i0], out...)
	s.stepScratch = out[:0]
	if i0 < s.dirtyFrom {
		s.dirtyFrom = i0
	}
	s.sufminOK = false
}

// rebuildSufmin repairs the suffix-minimum array: entries from dirtyFrom on
// are recomputed, then the repair propagates leftwards through the
// untouched prefix only while the suffix minimum seen from each piece
// actually changed.
func (s *Staircase) rebuildSufmin() {
	n := len(s.steps)
	if s.dirtyFrom >= n {
		// The last mutation coalesced the whole suffix away; the new
		// final piece still needs a fresh entry to drive the
		// propagation.
		s.dirtyFrom = n - 1
	}
	if cap(s.sufmin) < n {
		// Grow with headroom: the staircase lengthens a little on
		// every commit, so sizing to the exact length would
		// reallocate on each rebuild.
		grown := make([]int64, n, max(2*cap(s.sufmin), cap(s.steps)))
		copy(grown, s.sufmin[:min(len(s.sufmin), s.dirtyFrom)])
		s.sufmin = grown
	} else {
		s.sufmin = s.sufmin[:n]
	}
	i := n - 1
	m := s.steps[i].v
	for ; i >= s.dirtyFrom; i-- {
		if v := s.steps[i].v; v < m {
			m = v
		}
		s.sufmin[i] = m
	}
	for ; i >= 0; i-- {
		m = s.steps[i].v
		if nxt := s.sufmin[i+1]; nxt < m {
			m = nxt
		}
		if s.sufmin[i] == m {
			break // everything further left is unchanged too
		}
		s.sufmin[i] = m
	}
	s.sufminOK = true
	s.dirtyFrom = n
}

// EarliestFit returns the smallest t >= lowerBound such that free(t') >= need
// for all t' >= t, or +Inf when no such time exists (the final piece is below
// need). This is exactly the task_mem_EST / comm_mem_EST computation of
// Algorithm 1. The suffix-minimum array makes it O(log l) amortised (one
// O(l) rebuild after each mutation burst); EarliestFitLinear is the paper's
// O(l) walk, kept as the reference oracle.
func (s *Staircase) EarliestFit(lowerBound float64, need int64) float64 {
	if s.steps[len(s.steps)-1].v < need {
		return Inf
	}
	if !s.sufminOK {
		s.rebuildSufmin()
	}
	if s.sufmin[0] >= need {
		// The whole function fits: the binary search would land on
		// the first piece.
		return math.Max(lowerBound, s.steps[0].t)
	}
	// sufmin is non-decreasing in i: find the first piece from which the
	// whole suffix fits.
	lo, hi := 0, len(s.steps)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.sufmin[mid] >= need {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return math.Max(lowerBound, s.steps[lo].t)
}

// FitsFrom reports whether free(t') >= need for every t' >= t — equivalently
// whether EarliestFit(0, need) <= t (times before 0 are clamped to 0). It is
// the verification primitive of warm-start replay: confirming that a
// recorded fit still holds under a shrunken capacity costs one
// suffix-minimum lookup instead of a fresh earliest-fit search per memory.
func (s *Staircase) FitsFrom(t float64, need int64) bool {
	if need <= 0 {
		return true
	}
	if s.steps[len(s.steps)-1].v < need {
		return false
	}
	if !s.sufminOK {
		s.rebuildSufmin()
	}
	if t < 0 {
		t = 0
	}
	return s.sufmin[s.indexAt(t)] >= need
}

// SlackAt returns the suffix minimum of free over [max(t, 0), +inf) — the
// largest need that FitsFrom(t, need) still accepts. Warm-start recording
// uses it to measure how much headroom each committed fit had: shrinking the
// capacity by delta shifts the whole free function, and hence every suffix
// minimum, down by exactly delta, so a later replay passes the same fit at
// the same position iff delta does not exceed the recorded slack.
func (s *Staircase) SlackAt(t float64) int64 {
	if !s.sufminOK {
		s.rebuildSufmin()
	}
	if t < 0 {
		t = 0
	}
	return s.sufmin[s.indexAt(t)]
}

// EarliestFitLinear is the paper's O(l) backward walk. It is retained as the
// reference implementation that EarliestFit is tested against.
func (s *Staircase) EarliestFitLinear(lowerBound float64, need int64) float64 {
	if s.FinalValue() < need {
		return Inf
	}
	// Walk backwards to find the end of the last deficient piece.
	for i := len(s.steps) - 1; i >= 0; i-- {
		if s.steps[i].v < need {
			// Deficient on [steps[i].t, steps[i+1].t); the fit
			// starts at the next breakpoint. i is never the last
			// index because FinalValue() >= need.
			return math.Max(lowerBound, s.steps[i+1].t)
		}
	}
	return math.Max(lowerBound, 0)
}

// Breakpoints returns copies of the (time, value) pairs, mainly for tests
// and debugging.
func (s *Staircase) Breakpoints() (times []float64, values []int64) {
	times = make([]float64, len(s.steps))
	values = make([]int64, len(s.steps))
	for i, st := range s.steps {
		times[i] = st.t
		values[i] = st.v
	}
	return times, values
}

// String renders the staircase compactly, e.g. "[0:5 2:3 4:5]".
func (s *Staircase) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, st := range s.steps {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%g:%d", st.t, st.v)
	}
	b.WriteByte(']')
	return b.String()
}
