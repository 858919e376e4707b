package multi

import (
	"context"
	"math"

	"repro/internal/dag"
)

// The paper's MemHEFT keeps one availability time per processor (a task can
// only be appended after the last task of a processor). Classical HEFT
// instead uses an *insertion-based* policy: a task may fill an idle gap
// between two already-scheduled tasks. This file adds that policy as an
// ablation so its effect can be measured; the paper's algorithms default to
// the append policy.

// busyInterval is one committed occupation of a processor.
type busyInterval struct {
	start, end float64
}

// insertionState tracks per-processor busy lists (sorted by start) for the
// insertion policy.
type insertionState struct {
	busy [][]busyInterval
}

func newInsertionState(procs int) *insertionState {
	return &insertionState{busy: make([][]busyInterval, procs)}
}

// earliestFitOn returns the earliest time >= lb at which a task of duration
// w fits on proc.
func (is *insertionState) earliestFitOn(proc int, lb, w float64) float64 {
	cur := lb
	for _, iv := range is.busy[proc] {
		if cur+w <= iv.start+Eps {
			return cur
		}
		if iv.end > cur {
			cur = iv.end
		}
	}
	return cur
}

// insert records the occupation [start, start+w) on proc, keeping the list
// sorted.
func (is *insertionState) insert(proc int, start, w float64) {
	iv := busyInterval{start: start, end: start + w}
	list := is.busy[proc]
	pos := len(list)
	for i, b := range list {
		if iv.start < b.start {
			pos = i
			break
		}
	}
	list = append(list, busyInterval{})
	copy(list[pos+1:], list[pos:])
	list[pos] = iv
	is.busy[proc] = list
}

// cloneInto deep-copies is into dst (nil allocates) and returns dst.
func (is *insertionState) cloneInto(dst *insertionState) *insertionState {
	if dst == nil || len(dst.busy) != len(is.busy) {
		dst = newInsertionState(len(is.busy))
	}
	for i, list := range is.busy {
		dst.busy[i] = append(dst.busy[i][:0], list...)
	}
	return dst
}

// evaluateInsertion is evaluate with gap-filling resource selection. It
// shares the precedence and memory components with evaluate and differs
// only in how processor availability constrains the start time.
func (st *Partial) evaluateInsertion(id dag.TaskID, k int) Candidate {
	c := Candidate{Task: id, Pool: k, EST: inf, EFT: inf}
	lo, hi := st.procLo[k], st.procHi[k]
	if lo == hi {
		return c
	}
	precedenceEST, crossFiles, cmu := st.staticFor(id, k)
	var taskMemEST, commMemEST float64
	if !st.unbounded[k] {
		if need := crossFiles + st.outFiles[id]; need != 0 {
			taskMemEST = st.free[k].EarliestFit(0, need)
		}
		if crossFiles != 0 {
			commMemEST = st.free[k].EarliestFit(0, crossFiles)
		}
	}
	lower := math.Max(precedenceEST, taskMemEST)
	lower = math.Max(lower, commMemEST+cmu)
	if math.IsInf(lower, 1) {
		return c
	}
	w := st.in.Times[id][k]
	est := inf
	for proc := lo; proc < hi; proc++ {
		if t := st.ins.earliestFitOn(proc, lower, w); t < est {
			est = t
		}
	}
	c.EST = est
	c.EFT = est + w
	c.CMu = cmu
	return c
}

// commitInsertion commits a candidate computed by evaluateInsertion on the
// first processor of its pool with a gap at the candidate's start.
func (st *Partial) commitInsertion(c Candidate) {
	id, k := c.Task, c.Pool
	w := st.in.Times[id][k]
	start, fin := c.EST, c.EST+w
	bestProc := -1
	for proc := st.procLo[k]; proc < st.procHi[k]; proc++ {
		if st.ins.earliestFitOn(proc, c.EST, w) <= start+Eps {
			bestProc = proc
			break
		}
	}
	if bestProc < 0 {
		panic("multi: no gap at committed start time")
	}
	st.ins.insert(bestProc, start, w)
	st.sched.Tasks[id] = Placement{Start: start, Proc: bestProc}
	if fin > st.availProc[bestProc] {
		st.availProc[bestProc] = fin
	}
	st.taskPool[id] = int32(k)
	st.poolTasks[k]++
	st.finishTask(id, fin)
	st.commitFiles(id, k, start, fin, c.CMu)
}

// MemHEFTInsertion runs MemHEFT with classical HEFT's insertion-based
// processor selection instead of the paper's append policy. Everything else
// (priority list, memory accounting, ALAP communications) is identical. Its
// commits depend on idle-gap state a trace does not capture, so it neither
// records nor replays (Options.Record and Options.Replay are ignored).
func MemHEFTInsertion(ctx context.Context, in *Instance, p Platform, opt Options) (*Schedule, error) {
	opt.Record, opt.Replay = nil, nil
	return memHEFT(ctx, in, p, opt, true)
}
