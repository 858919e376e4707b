package multi

import (
	"context"
	"sync"

	"repro/internal/dag"
	"repro/internal/memo"
)

// Caches owns the per-instance memoized scheduler inputs: the instance
// statics consumed by every Partial (output totals, in-degrees, the largest
// communication time), the mean upward ranks, the seeded priority lists of
// MemHEFT, and the validation results. A memsched.Session creates one
// Caches per instance, which makes the memos concurrency-safe and
// contention-free across sessions by construction.
//
// All methods tolerate a nil receiver, which simply computes fresh: the
// reference oracles and one-shot callers pass no cache at all.
//
// Growth is bounded by construction: the statics and ranks are one slot (a
// session is one instance) and the priority memo holds at most
// maxPriorityEntries seeds. The task/edge counts guard against the graph
// growing between calls (tasks and edges are append-only and immutable once
// added, so the counts pin the graph's content); growth re-keys the cache
// and drops every memo.
type Caches struct {
	mu             sync.Mutex
	in             *Instance
	nTasks, nEdges int
	statics        *instanceStatics
	ranks          []float64
	priority       *memo.Bounded[int64, []dag.TaskID]

	// frozen is the read-only priority-list view inherited from Fork: a
	// snapshot of the parent's memoized lists at fork time. Reads fall
	// back to it after missing the own memo; writes always go to the own
	// memo (copy-on-write). Dropped on rekey like every other memo.
	frozen map[int64][]dag.TaskID
}

// instanceStatics holds the per-instance immutable inputs of a Partial plus
// the memoized validation state.
type instanceStatics struct {
	outFiles []int64
	inDegree []int
	maxComm  float64 // largest edge Comm: bounds how far back a placement reads a staircase

	graphValidated bool // a successful Graph.Validate ran for this graph
	matrixWidth    int  // pool count the matrix was validated against; 0 = none
}

// maxPriorityEntries bounds the per-seed priority-list memo. Sweeps use one
// seed (sometimes a handful); beyond the bound an arbitrary entry is
// evicted, which only costs a recompute.
const maxPriorityEntries = 64

// NewCaches returns an empty cache set, ready to be shared by any number of
// goroutines scheduling the same instance.
func NewCaches() *Caches { return &Caches{} }

// rekey points the cache at in, dropping every memo when the instance or
// its append-only graph content changed. The caller holds c.mu.
func (c *Caches) rekey(in *Instance) {
	if c.in == in && c.nTasks == in.G.NumTasks() && c.nEdges == in.G.NumEdges() {
		return
	}
	c.in, c.nTasks, c.nEdges = in, in.G.NumTasks(), in.G.NumEdges()
	c.statics = nil
	c.ranks = nil
	if c.priority != nil {
		c.priority.Reset()
	}
	c.frozen = nil
}

// Fork returns a child cache set born warm: it shares the parent's
// immutable memos — the instance statics (inner slices are never mutated
// once computed; the struct is copied so the validation fields stay
// private), the mean-rank slice (immutable once stored) and a frozen
// snapshot of the memoized priority lists — behind copy-on-write semantics.
// The child takes its own mutex from birth and never locks the parent's
// again, so forked sessions stay contention-free; new seeds or a re-keyed
// instance write only to the child's private memos.
func (c *Caches) Fork() *Caches {
	if c == nil {
		return NewCaches()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	child := &Caches{in: c.in, nTasks: c.nTasks, nEdges: c.nEdges, ranks: c.ranks}
	if c.statics != nil {
		snap := *c.statics
		child.statics = &snap
	}
	if len(c.frozen) > 0 {
		child.frozen = make(map[int64][]dag.TaskID, len(c.frozen))
		for seed, list := range c.frozen {
			child.frozen[seed] = list
		}
	}
	child.frozen = c.priority.Snapshot(child.frozen)
	return child
}

// Warm precomputes everything a fork inherits — instance statics, mean
// ranks and the priority list of every given seed — with cooperative
// cancellation, so forks taken afterwards are born fully warm. Validation
// is platform-dependent (matrix width) and stays lazy.
func (c *Caches) Warm(ctx context.Context, in *Instance, seeds []int64) error {
	if c == nil {
		return nil
	}
	if err := c.warmStatics(ctx, in); err != nil {
		return err
	}
	if _, err := c.MeanRanks(ctx, in); err != nil {
		return err
	}
	for _, seed := range seeds {
		if _, err := c.PriorityList(ctx, in, seed); err != nil {
			return err
		}
	}
	return nil
}

// computeStatics derives the per-instance immutable inputs of a Partial.
func computeStatics(in *Instance) *instanceStatics {
	s, _ := computeStaticsCtx(nil, in) // nil ctx never cancels
	return s
}

// computeStaticsCtx is computeStatics with cooperative cancellation: the
// derivation loop polls ctx (nil allowed) every rank stride.
func computeStaticsCtx(ctx context.Context, in *Instance) (*instanceStatics, error) {
	g := in.G
	n := g.NumTasks()
	edges := g.Edges()
	s := &instanceStatics{
		outFiles: make([]int64, n),
		inDegree: make([]int, n),
	}
	for i := 0; i < n; i++ {
		if ctx != nil && i%rankStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		id := dag.TaskID(i)
		s.inDegree[i] = len(g.In(id))
		for _, e := range g.Out(id) {
			s.outFiles[i] += edges[e].File
			s.maxComm = max(s.maxComm, edges[e].Comm)
		}
	}
	return s, nil
}

// staticsOf returns the memoized statics of in, computing them on a miss.
func (c *Caches) staticsOf(in *Instance) *instanceStatics {
	if c == nil {
		return computeStatics(in)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rekey(in)
	if c.statics == nil {
		c.statics = computeStatics(in)
	}
	return c.statics
}

// warmStatics memoizes in's statics ahead of NewPartialCached with
// cooperative cancellation: a nil receiver or nil ctx computes nothing and
// NewPartialCached derives them inline.
func (c *Caches) warmStatics(ctx context.Context, in *Instance) error {
	if c == nil || ctx == nil {
		return nil
	}
	c.mu.Lock()
	c.rekey(in)
	warm := c.statics != nil
	nTasks, nEdges := c.nTasks, c.nEdges
	c.mu.Unlock()
	if warm {
		return nil
	}
	s, err := computeStaticsCtx(ctx, in)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.in == in && c.nTasks == nTasks && c.nEdges == nEdges && c.statics == nil {
		c.statics = s
	}
	c.mu.Unlock()
	return nil
}

// Validate is Instance.Validate on a platform of nPools pools with the
// successful parts memoized: the graph check runs once per instance, the
// timing-matrix check once per pool count (an unchanged instance cannot
// become invalid).
func (c *Caches) Validate(in *Instance, nPools int) error {
	if c == nil || in == nil || in.G == nil {
		return in.validate(nPools)
	}
	c.mu.Lock()
	c.rekey(in)
	if c.statics == nil {
		c.statics = computeStatics(in)
	}
	s := c.statics
	graphDone, matrixDone := s.graphValidated, s.matrixWidth == nPools
	c.mu.Unlock()
	if graphDone && matrixDone {
		return nil
	}
	if !graphDone {
		if err := in.G.Validate(); err != nil {
			return err
		}
	}
	if !matrixDone {
		if err := in.validateMatrix(nPools); err != nil {
			return err
		}
	}
	c.mu.Lock()
	s.graphValidated = true
	s.matrixWidth = nPools
	c.mu.Unlock()
	return nil
}

// MeanRanks returns the memoized mean upward ranks of in, computing them on
// a miss. The returned slice is shared and must not be mutated. The context
// (nil allowed) cancels a cold ranking cooperatively; memo hits never
// consult it.
func (c *Caches) MeanRanks(ctx context.Context, in *Instance) ([]float64, error) {
	if c == nil {
		return in.MeanRanks(ctx)
	}
	c.mu.Lock()
	c.rekey(in)
	if r := c.ranks; r != nil {
		c.mu.Unlock()
		return r, nil
	}
	nTasks, nEdges := c.nTasks, c.nEdges
	c.mu.Unlock()

	ranks, err := in.MeanRanks(ctx)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if c.in == in && c.nTasks == nTasks && c.nEdges == nEdges && c.ranks == nil {
		c.ranks = ranks
	}
	c.mu.Unlock()
	return ranks, nil
}

// PriorityList returns the memoized MemHEFT priority list of (in, seed),
// computing it on a miss (the O(n log n) sort runs outside the mutex, and
// reuses the memoized ranks when present). The returned slice is a fresh
// copy the caller may mutate. The context (nil allowed) cancels a cold
// ranking cooperatively.
func (c *Caches) PriorityList(ctx context.Context, in *Instance, seed int64) ([]dag.TaskID, error) {
	if c == nil {
		return PriorityList(ctx, in, seed)
	}
	c.mu.Lock()
	c.rekey(in)
	if c.priority == nil {
		c.priority = memo.NewBounded[int64, []dag.TaskID](maxPriorityEntries)
	}
	if list, ok := c.priority.Get(seed); ok {
		out := append([]dag.TaskID(nil), list...)
		c.mu.Unlock()
		return out, nil
	}
	if list, ok := c.frozen[seed]; ok {
		// Inherited from a fork: the frozen snapshot is read-only, so a
		// copy serves the hit exactly like the own memo.
		out := append([]dag.TaskID(nil), list...)
		c.mu.Unlock()
		return out, nil
	}
	nTasks, nEdges := c.nTasks, c.nEdges
	c.mu.Unlock()

	ranks, err := c.MeanRanks(ctx, in)
	if err != nil {
		return nil, err
	}
	list := priorityFromRanks(in, ranks, seed)

	c.mu.Lock()
	// Store only while the cache is still keyed to the instance content
	// the list was derived from.
	if c.in == in && c.nTasks == nTasks && c.nEdges == nEdges {
		if _, ok := c.priority.Get(seed); !ok {
			c.priority.Put(seed, append([]dag.TaskID(nil), list...))
		}
	}
	c.mu.Unlock()
	return list, nil
}
