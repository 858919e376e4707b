package exact

import (
	"math"
	"sort"
	"testing"

	"repro/internal/daggen"
	"repro/internal/multi"
	"repro/internal/platform"
)

// naiveSearcher mirrors Solve with the pre-incremental search mechanics: a
// fresh Clone per node and fresh move buffers, no pooling. The branch
// ordering (sort.Slice on EFT) is byte-for-byte the same code, so the
// traversal — and hence node counts and the incumbent sequence — must be
// identical to the optimized search.
type naiveSearcher struct {
	bottom  []float64
	best    float64
	bestSch *multi.Schedule
	nodes   int
	max     int
	stopped bool
}

func (s *naiveSearcher) dfs(st *multi.Partial) {
	s.nodes++
	if s.stopped || s.nodes > s.max {
		s.stopped = true
		return
	}
	if st.Done() {
		if ms := st.MakespanSoFar(); ms < s.best || s.bestSch == nil {
			s.best = ms
			s.bestSch = st.Schedule().Clone()
		}
		return
	}
	var moves []multi.Candidate
	for _, id := range st.ReadyTasks() {
		for k := 0; k < 2; k++ {
			if c := st.Evaluate(id, k); c.Feasible() {
				moves = append(moves, c)
			}
		}
	}
	sort.Slice(moves, func(a, b int) bool { return moves[a].EFT < moves[b].EFT })
	for _, mv := range moves {
		child := st.Clone()
		child.Commit(mv)
		if lbOf(child, s.bottom) >= s.best-multi.Eps {
			continue
		}
		s.dfs(child)
		if s.stopped {
			return
		}
	}
}

// TestSearchMatchesNaiveClonePerNode runs the pooled branch-and-bound and a
// clone-per-node replica over random bounded instances and requires the
// same optimum, the same node count, and the same final schedule.
func TestSearchMatchesNaiveClonePerNode(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		params := daggen.SmallParams()
		params.Size = 7
		g, err := daggen.Generate(params, seed)
		if err != nil {
			t.Fatal(err)
		}
		in, p := inst(g), pools(platform.New(1, 1, 60, 60))
		res, err := Solve(tctx, in, p, Options{MaxNodes: 30000})
		if err != nil {
			t.Fatal(err)
		}

		bottom, err := bottomLevels(in)
		if err != nil {
			t.Fatal(err)
		}
		ns := &naiveSearcher{bottom: bottom, best: math.Inf(1), max: 30000}
		ns.dfs(multi.NewPartial(in, p))

		if ns.nodes != res.Nodes {
			t.Fatalf("seed %d: pooled search visited %d nodes, naive %d", seed, res.Nodes, ns.nodes)
		}
		if (ns.bestSch == nil) != (res.Schedule == nil) {
			t.Fatalf("seed %d: feasibility diverged (naive %v, pooled %v)", seed, ns.bestSch != nil, res.Schedule != nil)
		}
		if ns.bestSch == nil {
			continue
		}
		if ns.best != res.Makespan {
			t.Fatalf("seed %d: pooled optimum %g, naive %g", seed, res.Makespan, ns.best)
		}
		for i := range ns.bestSch.Tasks {
			if ns.bestSch.Tasks[i] != res.Schedule.Tasks[i] {
				t.Fatalf("seed %d: task %d placed %+v, naive says %+v",
					seed, i, res.Schedule.Tasks[i], ns.bestSch.Tasks[i])
			}
		}
	}
}
