package multi

import (
	"math"
	"sync"

	"repro/internal/dag"
	"repro/internal/memfn"
	"repro/internal/platform"
)

// Partial is the k-pool partial schedule under construction: the
// placements committed so far, the per-processor availability times and one
// free-memory staircase per pool. MemHEFT and MemMinMin drive it
// internally; it is exported so that the branch-and-bound search of
// internal/exact can explore the same decision space with identical
// semantics. A Commit perturbs very little of the state, so Partial keeps
// just enough bookkeeping to re-derive only what changed:
//
//   - ready-ness is tracked with per-task uncommitted-parent counters
//     (Ready is O(1)); no ready list is maintained, and ReadyTasks scans the
//     counters on demand (MemMinMin calls it once per run, internal/exact
//     once per search node);
//   - the makespan is a running max updated on Commit;
//   - each pool carries an epoch counter, bumped whenever its staircase or
//     one of its processors mutates. Evaluate memoizes its result per
//     (task, pool) and reuses it while the pool's epoch and the task's
//     parent set are unchanged — after a commit on one pool, the other
//     k-1 pools' candidates are typically served from cache;
//   - the precedence aggregates of a ready task (precedence_EST, cross file
//     volume, C(mu,i)) depend only on its committed parents, so one walk
//     over its in-edges computes them for all k pools at once, and only a
//     parent commit invalidates them;
//   - blocked candidates short-circuit through an O(1) final-free-value
//     check instead of two staircase queries;
//   - the staircase updates of one Commit are spliced with one batched
//     memfn.ReserveBatch per touched pool (the task's pool gets at most
//     three coalesced deltas; each source pool of a cross input gets one);
//   - each bounded pool's staircase keeps only its live window: after a
//     commit on pool k it forgets the pieces before a cut c that no later
//     query on k reaches (see forget). On [c, +inf) the window equals the
//     whole staircase, and c never decreases, so every query answers as on
//     the whole history while costing O(log l) in the window's length l;
//   - pools with capacity >= platform.Unlimited skip staircase maintenance
//     entirely, turning the memory-oblivious HEFT/MinMin variants into pure
//     list schedulers.
//
// None of this is visible in the results: schedules are bit-identical to
// the retained eager implementation (see naive.go for the reference oracles
// and equivalence_test.go for the proof).
type Partial struct {
	in    *Instance
	g     *dag.Graph
	edges []dag.Edge // g.Edges(), cached to skip bounds checks in hot loops
	p     Platform
	k     int // pool count

	procLo, procHi []int // per pool: global processor interval

	sched     *Schedule
	free      []*memfn.Staircase // per pool
	availProc []float64          // per processor: finish time of its last task
	assigned  []bool             // per task
	finish    []float64          // per task: actual finish time (AFT)
	taskPool  []int32            // per task: committed pool, -1 while unassigned
	nDone     int

	pending    []int        // per task: number of uncommitted parents
	readyBuf   []dag.TaskID // ReadyTasks' result buffer
	newlyReady []dag.TaskID // tasks turned ready by the last Commit
	makespan   float64      // running max of committed finish times

	commitSeq   uint64     // number of commits so far
	epoch       []uint64   // per pool: mutation counter
	parentStamp []uint64   // per task: commitSeq of the last parent commit
	slots       []evalSlot // per (task, pool): memoized evaluation state
	outFiles    []int64    // per task: total output file size (immutable)
	maxComm     float64    // largest edge Comm of the instance (immutable)
	unbounded   []bool     // per pool: capacity never constrains

	batch     []memfn.Delta // Commit scratch, reused
	crossAmt  []int64       // per pool scratch: cross volume from that source
	poolTasks []int         // per pool: tasks committed there (run stats)

	// hits and misses count memoized candidate lookups served fresh vs
	// recomputed; sessions surface the ratio in their result stats.
	hits, misses uint64

	// ins, when non-nil, switches processor selection to classical HEFT's
	// insertion-based policy (see insertion.go). The paper's algorithms
	// leave it nil (append policy).
	ins *insertionState
}

// evalSlot is the memoized evaluation state of one (task, pool) pair. The
// candidate part (cand) is valid while the pool's epoch and the task's
// parent stamp still match. The static part (precEST/cross/cmu) is fixed
// once a task is ready, so it is computed once per readiness, for all of
// the task's pools together, and invalidated by parent commits only.
type evalSlot struct {
	cand  Candidate
	epoch uint64
	stamp uint64
	ok    bool

	precEST float64
	cross   int64
	cmu     float64
	sstamp  uint64
	sok     bool
}

// Candidate is the outcome of evaluating one (task, pool) pair.
type Candidate struct {
	Task dag.TaskID
	Pool int
	EST  float64 // earliest start time; +inf when infeasible
	EFT  float64 // EST + Times[task][pool]
	CMu  float64 // conservative uniform communication duration C(mu,i)
}

// Feasible reports whether the pair can currently be scheduled.
func (c Candidate) Feasible() bool { return !math.IsInf(c.EFT, 1) }

// NewPartial returns an empty k-pool partial schedule, deriving the
// instance statics from scratch.
func NewPartial(in *Instance, p Platform) *Partial {
	return NewPartialCached(in, p, nil)
}

// NewPartialCached is NewPartial serving the per-instance statics from c (a
// nil c computes them fresh). Its buffers come from the process-wide pool
// that the heuristics refill when a run ends.
func NewPartialCached(in *Instance, p Platform, c *Caches) *Partial {
	st := partials.Get().(*Partial)
	st.reset(in, p, c.staticsOf(in))
	return st
}

// partials recycles the buffers of finished Partials (candidate slots,
// counters, staircases) across runs and sessions: the memory-sweep and
// service patterns schedule graphs of similar sizes over and over. One
// process-wide pool, rather than a slot per session, keeps the recycled
// memory proportional to the runs in flight instead of the sessions cached.
var partials = sync.Pool{New: func() any { return new(Partial) }}

// recycle hands a finished Partial's buffers back for a later run. It drops
// every reference to the run's graph, instance and schedule, so a pooled
// Partial never keeps an evicted session's graph alive. The Partial must
// not be used by the caller afterwards; the schedule it produced stays
// valid (reset always allocates a fresh one).
func recycle(st *Partial) {
	if st == nil {
		return
	}
	st.in, st.g, st.edges, st.p = nil, nil, nil, Platform{}
	st.sched, st.outFiles, st.ins = nil, nil, nil
	partials.Put(st)
}

// reset (re)initialises st for a fresh run of in on p, reusing every buffer
// whose capacity still fits. The schedule itself is always allocated fresh:
// it escapes to the caller when the run completes.
func (st *Partial) reset(in *Instance, p Platform, gs *instanceStatics) {
	n, k := in.G.NumTasks(), p.NumPools()
	st.in, st.g, st.edges, st.p, st.k = in, in.G, in.G.Edges(), p, k

	st.procLo = resize(st.procLo, k)
	st.procHi = resize(st.procHi, k)
	lo := 0
	for j, pool := range p.Pools {
		st.procLo[j], st.procHi[j] = lo, lo+pool.Procs
		lo += pool.Procs
	}

	st.sched = NewSchedule(in, p)
	if cap(st.free) < k {
		st.free = make([]*memfn.Staircase, k)
	}
	st.free = st.free[:k]
	st.unbounded = resize(st.unbounded, k)
	for j, pool := range p.Pools {
		if st.free[j] == nil {
			st.free[j] = memfn.New(pool.Capacity)
		} else {
			st.free[j].Reset(pool.Capacity)
		}
		st.unbounded[j] = pool.Capacity >= platform.Unlimited
	}

	st.availProc = resize(st.availProc, lo)
	st.assigned = resize(st.assigned, n)
	st.finish = resize(st.finish, n)
	st.taskPool = resize(st.taskPool, n)
	for i := range st.taskPool {
		st.taskPool[i] = -1
	}
	st.nDone = 0

	st.pending = append(st.pending[:0], gs.inDegree...)
	st.newlyReady = st.newlyReady[:0]
	st.makespan = 0

	st.commitSeq = 0
	st.epoch = resize(st.epoch, k)
	st.parentStamp = resize(st.parentStamp, n)
	if cap(st.slots) < n*k {
		st.slots = make([]evalSlot, n*k)
	} else {
		st.slots = st.slots[:n*k]
		clear(st.slots)
	}
	st.outFiles = gs.outFiles
	st.maxComm = gs.maxComm
	st.crossAmt = resize(st.crossAmt, k)
	st.poolTasks = resize(st.poolTasks, k)
	st.hits, st.misses = 0, 0
	st.ins = nil
}

// resize returns s with length n and every element zeroed, reusing the
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Clone returns an independent deep copy, for tree search.
func (st *Partial) Clone() *Partial { return st.CloneInto(nil) }

// CloneInto deep-copies st into dst, reusing dst's storage when possible,
// and returns dst. A nil dst allocates a fresh Partial; internal/exact keeps
// a free list of exhausted nodes and clones into them to avoid churning the
// allocator at every search node.
func (st *Partial) CloneInto(dst *Partial) *Partial {
	if dst == nil {
		dst = &Partial{}
	}
	dst.in, dst.g, dst.edges, dst.p, dst.k = st.in, st.g, st.edges, st.p, st.k
	dst.procLo = append(dst.procLo[:0], st.procLo...)
	dst.procHi = append(dst.procHi[:0], st.procHi...)
	if dst.sched == nil {
		dst.sched = &Schedule{}
	}
	dst.sched.Inst, dst.sched.Platform = st.sched.Inst, st.sched.Platform
	dst.sched.Tasks = append(dst.sched.Tasks[:0], st.sched.Tasks...)
	dst.sched.CommStart = append(dst.sched.CommStart[:0], st.sched.CommStart...)
	if len(dst.free) != len(st.free) {
		dst.free = make([]*memfn.Staircase, len(st.free))
	}
	for j, f := range st.free {
		dst.free[j] = f.CloneInto(dst.free[j])
	}
	dst.availProc = append(dst.availProc[:0], st.availProc...)
	dst.assigned = append(dst.assigned[:0], st.assigned...)
	dst.finish = append(dst.finish[:0], st.finish...)
	dst.taskPool = append(dst.taskPool[:0], st.taskPool...)
	dst.nDone = st.nDone
	dst.pending = append(dst.pending[:0], st.pending...)
	dst.newlyReady = dst.newlyReady[:0]
	dst.makespan = st.makespan
	dst.commitSeq = st.commitSeq
	dst.epoch = append(dst.epoch[:0], st.epoch...)
	dst.parentStamp = append(dst.parentStamp[:0], st.parentStamp...)
	dst.slots = append(dst.slots[:0], st.slots...)
	dst.outFiles = st.outFiles // immutable, shared
	dst.maxComm = st.maxComm
	dst.unbounded = append(dst.unbounded[:0], st.unbounded...)
	dst.crossAmt = resize(dst.crossAmt, st.k)
	dst.poolTasks = append(dst.poolTasks[:0], st.poolTasks...)
	dst.hits, dst.misses = st.hits, st.misses
	if st.ins == nil {
		dst.ins = nil
	} else {
		dst.ins = st.ins.cloneInto(dst.ins)
	}
	return dst
}

// Schedule returns the underlying schedule (complete only when Done).
func (st *Partial) Schedule() *Schedule { return st.sched }

// Done reports whether every task has been committed.
func (st *Partial) Done() bool { return st.nDone == st.g.NumTasks() }

// Assigned reports whether task id has been committed.
func (st *Partial) Assigned(id dag.TaskID) bool { return st.assigned[id] }

// Finish returns the committed finish time of task id (0 if unassigned).
func (st *Partial) Finish(id dag.TaskID) float64 { return st.finish[id] }

// MakespanSoFar returns the latest committed finish time, O(1).
func (st *Partial) MakespanSoFar() float64 { return st.makespan }

// CacheStats returns how many candidate evaluations were served from the
// (task, pool) memo versus recomputed.
func (st *Partial) CacheStats() (hits, misses uint64) { return st.hits, st.misses }

// reportStats accumulates the candidate-cache counters, the running makespan
// and the per-pool commit counts into rs (nil-safe).
func (st *Partial) reportStats(rs *RunStats) {
	if rs == nil {
		return
	}
	rs.CacheHits += st.hits
	rs.CacheMisses += st.misses
	rs.Makespan = st.makespan
	if len(rs.PoolTasks) != st.k {
		rs.PoolTasks = make([]int, st.k)
	}
	copy(rs.PoolTasks, st.poolTasks)
}

// Ready reports whether every parent of task id has been committed, O(1).
func (st *Partial) Ready(id dag.TaskID) bool {
	return !st.assigned[id] && st.pending[id] == 0
}

// ReadyTasks returns all ready tasks in ID order, found by one scan of the
// parent counters. The returned slice is a buffer the next ReadyTasks call
// on the same Partial overwrites: it must not be modified or held across
// that call.
func (st *Partial) ReadyTasks() []dag.TaskID {
	out := st.readyBuf[:0]
	for i, p := range st.pending {
		if p == 0 && !st.assigned[i] {
			out = append(out, dag.TaskID(i))
		}
	}
	st.readyBuf = out
	return out
}

// NewlyReady returns the tasks whose last uncommitted parent was the most
// recently committed task, in edge order. The slice is internal and valid
// until the next Commit.
func (st *Partial) NewlyReady() []dag.TaskID { return st.newlyReady }

// staticFor returns the parent-derived aggregates of a ready task on pool
// k: precedence_EST, the total size of input files not yet on the pool, and
// the conservative communication duration C(mu,i). For a ready task these
// are fixed (all parents committed), so they are memoized per (task, pool)
// keyed by the task's parent stamp, and a miss fills every pool's slot of
// the task at once (fillStatics).
func (st *Partial) staticFor(id dag.TaskID, k int) (precEST float64, cross int64, cmu float64) {
	base := int(id) * st.k
	sp := &st.slots[base+k]
	if stamp := st.parentStamp[id]; !sp.sok || sp.sstamp != stamp {
		st.fillStatics(id, st.slots[base:base+st.k], stamp)
	}
	return sp.precEST, sp.cross, sp.cmu
}

// fillStatics computes the static part of every pool's slot of task id in
// one walk over its in-edges. Each pool folds the edges in the same order,
// with the same comparisons, as a walk of its own would, so its values are
// bit-identical to a per-pool derivation.
func (st *Partial) fillStatics(id dag.TaskID, slots []evalSlot, stamp uint64) {
	for j := range slots {
		sp := &slots[j]
		sp.precEST, sp.cross, sp.cmu = 0, 0, 0
		sp.sstamp, sp.sok = stamp, true
	}
	for _, e := range st.g.In(id) {
		edge := &st.edges[e]
		aft := st.finish[edge.From]
		viaComm := aft + edge.Comm
		src := int(st.taskPool[edge.From])
		for j := range slots {
			sp := &slots[j]
			if j == src {
				if aft > sp.precEST {
					sp.precEST = aft
				}
				continue
			}
			if viaComm > sp.precEST {
				sp.precEST = viaComm
			}
			sp.cross += edge.File
			if edge.Comm > sp.cmu {
				sp.cmu = edge.Comm
			}
		}
	}
}

// slotFresh reports whether a memoized candidate slot is still valid:
// nothing on pool k mutated and no parent of id committed since it was
// evaluated.
func (st *Partial) slotFresh(e *evalSlot, id dag.TaskID, k int) bool {
	return e.ok && e.epoch == st.epoch[k] && e.stamp == st.parentStamp[id]
}

// BestFresh reports whether the memoized Best of id is still valid on every
// pool; MemMinMin's candidate heap uses it for lazy invalidation.
func (st *Partial) BestFresh(id dag.TaskID) bool {
	base := int(id) * st.k
	for k := 0; k < st.k; k++ {
		if !st.slotFresh(&st.slots[base+k], id, k) {
			return false
		}
	}
	return true
}

// blockedOn decides in O(1) whether id is infeasible on pool k — exactly
// when Evaluate would return EFT = +inf: the pool has no processor, or its
// final free value cannot hold the task's files. (Resource, precedence and
// C(mu,i) components are always finite, and Partial's staircases are never
// negative, so only the final value can push an EarliestFit to +inf.)
func (st *Partial) blockedOn(id dag.TaskID, k int) bool {
	if st.procLo[k] == st.procHi[k] {
		return true
	}
	if st.unbounded[k] {
		return false
	}
	_, cross, _ := st.staticFor(id, k)
	return st.free[k].FinalValue() < cross+st.outFiles[id]
}

// Evaluate computes EST and EFT of a ready task id on pool k following the
// four components of §5.1 (with "cross" meaning "parent on any other
// pool"). The caller must ensure Ready(id). Results are memoized per
// (task, pool) under the epoch/parent-stamp invalidation scheme described
// on Partial.
func (st *Partial) Evaluate(id dag.TaskID, k int) Candidate {
	e := &st.slots[int(id)*st.k+k]
	if st.slotFresh(e, id, k) {
		st.hits++
		return e.cand
	}
	st.misses++
	var c Candidate
	if st.blockedOn(id, k) {
		c = Candidate{Task: id, Pool: k, EST: inf, EFT: inf}
	} else {
		c = st.evaluate(id, k)
	}
	e.cand, e.epoch, e.stamp, e.ok = c, st.epoch[k], st.parentStamp[id], true
	return c
}

// evaluate is the uncached candidate computation.
func (st *Partial) evaluate(id dag.TaskID, k int) Candidate {
	if st.ins != nil {
		return st.evaluateInsertion(id, k)
	}
	c := Candidate{Task: id, Pool: k, EST: inf, EFT: inf}

	if st.procLo[k] == st.procHi[k] {
		return c // no processor on this pool
	}
	resourceEST := st.earliestAvail(k)

	// precedence_EST and the cross-input aggregates.
	precedenceEST, crossFiles, cmu := st.staticFor(id, k)

	// Memory needs: inputs not yet on the pool, plus every output file. A
	// zero need always fits at time 0 (the staircases are never driven
	// negative), so the query can be skipped outright; unbounded pools
	// skip both queries always.
	var taskMemEST, commMemEST float64
	if !st.unbounded[k] {
		if need := crossFiles + st.outFiles[id]; need != 0 {
			taskMemEST = st.free[k].EarliestFit(0, need)
		}
		if crossFiles != 0 {
			commMemEST = st.free[k].EarliestFit(0, crossFiles)
		}
	}

	// All components are non-negative and NaN-free, so plain comparisons
	// reproduce math.Max bit for bit.
	est := resourceEST
	if precedenceEST > est {
		est = precedenceEST
	}
	if taskMemEST > est {
		est = taskMemEST
	}
	if v := commMemEST + cmu; v > est {
		est = v
	}
	if est == inf {
		return c
	}
	c.EST = est
	c.EFT = est + st.in.Times[id][k]
	c.CMu = cmu
	return c
}

// earliestAvail returns the earliest availability among pool k's
// processors: resource_EST under the append policy.
func (st *Partial) earliestAvail(k int) float64 {
	t := inf
	for proc := st.procLo[k]; proc < st.procHi[k]; proc++ {
		if st.availProc[proc] < t {
			t = st.availProc[proc]
		}
	}
	return t
}

// Best returns the minimum-EFT candidate of a ready task over all pools
// (lowest pool index wins ties, so the paper's blue memory, pool 0, wins in
// the 2-pool case). The returned candidate may be infeasible on every pool
// (EFT = +inf).
func (st *Partial) Best(id dag.TaskID) Candidate {
	b := Candidate{Task: id, Pool: -1, EST: inf, EFT: inf}
	for k := 0; k < st.k; k++ {
		if c := st.Evaluate(id, k); c.EFT < b.EFT {
			b = c
		}
	}
	return b
}

// finishTask records the completion bookkeeping of one commit: assignment,
// running makespan, parent counters and parent stamps.
func (st *Partial) finishTask(id dag.TaskID, fin float64) {
	st.assigned[id] = true
	st.finish[id] = fin
	st.nDone++
	if fin > st.makespan {
		st.makespan = fin
	}
	st.commitSeq++
	st.newlyReady = st.newlyReady[:0]
	for _, e := range st.g.Out(id) {
		child := st.edges[e].To
		st.parentStamp[child] = st.commitSeq
		st.pending[child]--
		if st.pending[child] == 0 {
			st.newlyReady = append(st.newlyReady, child)
		}
	}
}

// commitFiles applies all staircase updates of one commit: one batched
// splice on the task's pool (outputs open-ended from start, intra inputs
// released at finish, cross inputs over the conservative window
// [start-C, finish)) and, for every source pool of a cross input, one
// release of the transferred volume at the task's start. Pool epochs are
// bumped accordingly; unbounded pools skip the staircase work but the
// committed pool's epoch still moves (a processor of it was claimed).
func (st *Partial) commitFiles(id dag.TaskID, k int, start, fin, cmu float64) {
	var intraSum, crossSum int64
	for _, e := range st.g.In(id) {
		edge := &st.edges[e]
		src := int(st.taskPool[edge.From])
		if src == k {
			intraSum += edge.File
			continue
		}
		// Cross edge: emit the true ALAP communication (per-edge
		// duration), account for the conservative window.
		st.sched.CommStart[edge.ID] = start - edge.Comm
		crossSum += edge.File
		st.crossAmt[src] += edge.File
	}
	if !st.unbounded[k] {
		ops := st.batch[:0]
		if out := st.outFiles[id]; out != 0 {
			ops = append(ops, memfn.Delta{From: start, To: memfn.Inf, Amount: out})
		}
		if intraSum != 0 {
			ops = append(ops, memfn.Delta{From: fin, To: memfn.Inf, Amount: -intraSum})
		}
		if crossSum != 0 {
			ops = append(ops, memfn.Delta{From: start - cmu, To: fin, Amount: crossSum})
		}
		if len(ops) > 0 {
			st.free[k].ReserveBatch(ops)
		}
		st.batch = ops[:0]
	}
	st.epoch[k]++
	if crossSum != 0 {
		for j := range st.crossAmt {
			amt := st.crossAmt[j]
			if amt == 0 {
				continue
			}
			st.crossAmt[j] = 0
			if st.unbounded[j] {
				continue
			}
			// The transferred files leave the source pool when the
			// conservative transfer completes, at the task's start.
			st.batch = append(st.batch[:0], memfn.Delta{From: start, To: memfn.Inf, Amount: -amt})
			st.free[j].ReserveBatch(st.batch)
			st.batch = st.batch[:0]
			st.epoch[j]++
		}
	}
}

// Commit places the candidate into the schedule: picks the processor of its
// pool that minimises idle time, schedules every cross communication as
// late as possible, and applies the staircase updates described on
// commitFiles. The feasibility of the reservations is guaranteed by
// task_mem_EST and comm_mem_EST, so Commit never drives a staircase
// negative.
func (st *Partial) Commit(c Candidate) {
	if st.ins != nil {
		st.commitInsertion(c)
		return
	}
	id, k := c.Task, c.Pool
	w := st.in.Times[id][k]
	start, fin := c.EST, c.EST+w

	lo, hi := st.procLo[k], st.procHi[k]
	bestProc, bestAvail := -1, math.Inf(-1)
	for proc := lo; proc < hi; proc++ {
		a := st.availProc[proc]
		if a <= start+Eps && a > bestAvail {
			bestProc, bestAvail = proc, a
		}
	}
	if bestProc < 0 {
		// Cannot happen: resource_EST <= start guarantees a free
		// processor.
		panic("multi: no free processor at committed start time")
	}

	st.sched.Tasks[id] = Placement{Start: start, Proc: bestProc}
	st.availProc[bestProc] = fin
	st.taskPool[id] = int32(k)
	st.poolTasks[k]++
	st.finishTask(id, fin)
	st.commitFiles(id, k, start, fin, c.CMu)
	if !st.unbounded[k] {
		st.forget(k)
	}
}

// forget cuts pool k's staircase down to its live window after an
// append-policy commit on k. Let T be the earliest availability among k's
// processors and Cmax the instance's largest edge Comm. T never decreases:
// a commit starts at EST >= resource_EST = T and leaves its processor free
// at EST + w >= EST. Every later use of k's staircase is therefore at or
// after fl(T - Cmax):
//
//   - evaluate's task fit only matters above resource_EST >= T, and its
//     comm fit only where fit + C(mu,i) > resource_EST, with C(mu,i) <= Cmax;
//   - replayVerify and recordStep query at EST and at EST - C(mu,i);
//   - commitFiles reserves on k from start, fin and start - C(mu,i).
//
// The one reservation that can land below a pool's cut, a cross input's
// release on its source pool at the consumer's start, only changes the
// forgotten region. The cut c is the largest float with c <= fl(T - Cmax)
// and fl(c + Cmax) <= T. A fit that lies at or before c may come back as
// any time up to c from the window, but then both it and the true fit give
// fl(fit + C(mu,i)) <= fl(c + Cmax) <= T, where resource_EST already
// dominates, and every fit after c comes back unchanged. Plain T - Cmax
// can round so that adding Cmax back exceeds T, so c steps down with
// math.Nextafter until it does not. A cut at or below 0 forgets nothing.
// The insertion policy never comes here: it can start a task in an idle
// gap before T.
func (st *Partial) forget(k int) {
	t := st.earliestAvail(k)
	c := t - st.maxComm
	for c > 0 && c+st.maxComm > t {
		c = math.Nextafter(c, 0)
	}
	if c > 0 {
		st.free[k].Forget(c)
	}
}
