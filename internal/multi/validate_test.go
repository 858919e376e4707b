package multi

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dag"
)

// checkMemoryQuadratic is the memory check Validate made before the sweep:
// the usage at every residency start summed over every residency of the
// pool. It is the oracle checkMemory is tested against.
func (s *Schedule) checkMemoryQuadratic(rs []residency) error {
	for _, r := range rs {
		if !(r.from <= r.to) {
			continue
		}
		var usage int64
		for _, o := range rs {
			if o.pool == r.pool && Live(o.from, o.to, r.from) {
				usage += o.size
			}
		}
		if usage > s.Platform.Pools[r.pool].Capacity {
			return fmt.Errorf("multi: pool %d over capacity at t=%g: %d > %d", r.pool, r.from, usage, s.Platform.Pools[r.pool].Capacity)
		}
	}
	return nil
}

// nearTieSchedule places every task of a random DAG at a random start on
// a random processor of k pools. Starts, durations and communication
// starts sit on a coarse grid plus jitters of a fraction of Eps to a few
// Eps, so many residencies start and end within Eps of each other, and
// some cross edges get a transfer window that ends before it starts.
func nearTieSchedule(seed int64, n, k int) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	g := randomDAG(seed, n)
	jitters := []float64{0, 0, 0, Eps / 2, -Eps / 2, Eps, -Eps, 2 * Eps, -2 * Eps, 1e-12}
	near := func(base float64) float64 { return base + jitters[rng.Intn(len(jitters))] }
	times := make([][]float64, n)
	for i := range times {
		times[i] = make([]float64, k)
		for j := range times[i] {
			times[i][j] = near(float64(rng.Intn(4)))
		}
	}
	pools := make([]Pool, k)
	for j := range pools {
		pools[j] = Pool{Procs: 1 + rng.Intn(2)}
	}
	in := NewInstance(g, times)
	s := NewSchedule(in, NewPlatform(pools...))
	for i := range s.Tasks {
		s.Tasks[i] = Placement{Start: near(float64(rng.Intn(12))), Proc: rng.Intn(s.Platform.TotalProcs())}
	}
	for e := range s.CommStart {
		if edge := g.Edge(dag.EdgeID(e)); s.IsCross(dag.EdgeID(e)) {
			if rng.Intn(2) == 0 {
				s.CommStart[e] = near(s.Finish(edge.From))
			} else {
				s.CommStart[e] = near(s.Tasks[edge.To].Start - edge.Comm)
			}
		}
	}
	return s
}

// TestCheckMemoryMatchesQuadratic compares Validate's sweep with the
// quadratic check on random near-tie schedules, with every pool at its
// peak and with one pool at a time one unit below it: both must accept,
// or both must name the same residency, time and usage.
func TestCheckMemoryMatchesQuadratic(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		k := 1 + int(seed)%4
		s := nearTieSchedule(seed, 10+int(seed)%50, k)
		rs := s.residencies()
		peaks := s.MemoryPeaks()
		for low := -1; low < k; low++ {
			pools := append([]Pool(nil), s.Platform.Pools...)
			for j := range pools {
				pools[j].Capacity = peaks[j]
				if j == low {
					pools[j].Capacity--
				}
			}
			capped := *s
			capped.Platform = NewPlatform(pools...)
			got, want := capped.checkMemory(rs), capped.checkMemoryQuadratic(rs)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d, pool %d below peak: sweep says %v, quadratic check %v", seed, low, got, want)
			}
			if low < 0 && got != nil {
				t.Fatalf("seed %d: over capacity at the schedule's own peaks: %v", seed, got)
			}
			if low >= 0 && peaks[low] > 0 && got == nil {
				t.Fatalf("seed %d: pool %d one unit below its peak %d accepted", seed, low, peaks[low])
			}
		}
	}
}
