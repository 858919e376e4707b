package multi

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/daggen"
)

// TestSortByTime checks the radix sort against slices.Sort on times that
// stress the uint64 image: negatives, both zeros, infinities, duplicates
// and near-ties.
func TestSortByTime(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), -1, 1, 1e-300, -1e-300, 1 + Eps, 1 - Eps/2}
	var buf []event
	for _, n := range []int{0, 1, 2, 3, 17, 1000, 5000} {
		evs := make([]event, n)
		for i := range evs {
			var x float64
			switch rng.IntN(4) {
			case 0:
				x = special[rng.IntN(len(special))]
			case 1:
				x = float64(rng.IntN(50)) // duplicates
			default:
				x = (rng.Float64() - 0.25) * 1e4
			}
			evs[i] = event{t: x, size: int64(i)}
		}
		want := make([]float64, n)
		for i, e := range evs {
			want[i] = e.t
		}
		slices.Sort(want)
		var sorted []event
		sorted, buf = sortByTime(evs, buf)
		if len(sorted) != n {
			t.Fatalf("n=%d: sorted %d events", n, len(sorted))
		}
		seen := make([]bool, n)
		for i, e := range sorted {
			if e.t != want[i] {
				t.Fatalf("n=%d: position %d holds %g, want %g", n, i, e.t, want[i])
			}
			if seen[e.size] {
				t.Fatalf("n=%d: event %d duplicated", n, e.size)
			}
			seen[e.size] = true
		}
	}
}

// TestPeaksMatchLiveRuleOnArbitrarySchedules compares MemoryPeaks with the
// quadratic live-rule scan over residencies on schedules no engine would
// produce: near-zero work and transfer times on a grid of Eps/4, and starts
// that trail their inputs by up to 3/4 Eps, so event times cluster within
// Eps of each other, some fall exactly Eps apart, and some residencies end
// before they start (a consumer finishing before its producer starts).
// Every task has its own processor and every precedence holds within Eps,
// so Validate judges memory alone; it must accept each schedule at its
// peaks and reject it with either memory one unit below a nonzero peak. A
// third of the schedules also leave some cross edges without a transfer
// start (NaN): such a residency never counts nor marks an instant, and
// Validate is skipped for them.
func TestPeaksMatchLiveRuleOnArbitrarySchedules(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	tick := func(k int) float64 { return float64(k) * Eps / 4 }
	degenerate := 0
	for seed := int64(0); seed < 90; seed++ {
		params := daggen.SmallParams()
		params.Size = 5 + rng.IntN(40)
		g0, err := daggen.Generate(params, seed)
		if err != nil {
			t.Fatal(err)
		}
		n := g0.NumTasks()
		g := dag.New()
		for i := 0; i < n; i++ {
			w := tick(rng.IntN(3))
			g.AddTask("", w, 2*w)
		}
		for _, e := range g0.Edges() {
			g.MustAddEdge(e.From, e.To, int64(rng.IntN(4)), tick(rng.IntN(3)))
		}
		order, err := g.TopologicalOrder()
		if err != nil {
			t.Fatal(err)
		}
		s := NewSchedule(FromDual(g), DualPlatform(n, n, dag.Unlimited, dag.Unlimited))
		holes := seed%3 == 0
		for _, id := range order {
			proc := int(id) // blue processor id, or red processor n+id
			if rng.IntN(2) == 0 {
				proc += n
			}
			s.Tasks[id] = Placement{Start: 0, Proc: proc}
			start := tick(rng.IntN(6))
			for _, e := range g.In(id) {
				ready := s.Finish(g.Edge(e).From)
				if s.IsCross(e) {
					if holes && rng.IntN(10) == 0 {
						continue
					}
					s.CommStart[e] = ready - tick(rng.IntN(4))
					ready = s.CommStart[e] + g.Edge(e).Comm
				}
				start = max(start, ready-tick(rng.IntN(4))+tick(rng.IntN(3)))
			}
			s.Tasks[id].Start = start
		}
		for _, r := range s.residencies() {
			if r.from > r.to {
				degenerate++
			}
		}
		blue, red := s.MemoryPeaks()[0], s.MemoryPeaks()[1]
		want := liveRulePeaks(s)
		if blue != want[0] || red != want[1] {
			t.Fatalf("seed %d: MemoryPeaks = (%d,%d), live rule %v", seed, blue, red, want)
		}
		if holes {
			continue
		}
		s.Platform = DualPlatform(n, n, blue, red)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: rejected at its own peaks (%d,%d): %v", seed, blue, red, err)
		}
		for m, peak := range want {
			if peak == 0 {
				continue
			}
			bounds := want
			bounds[m]--
			s.Platform = DualPlatform(n, n, bounds[0], bounds[1])
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "over capacity") {
				t.Fatalf("seed %d: pool %d capacity %d below its peak: Validate = %v", seed, m, bounds[m], err)
			}
		}
	}
	if degenerate == 0 {
		t.Fatal("no residency ends before it starts: generator too tame")
	}
}

// liveRulePeaks is the definition MemoryPeaks implements: per memory, the
// largest sum of residencies Live at an instant where a residency that can
// be live opens.
func liveRulePeaks(s *Schedule) [2]int64 {
	var peaks [2]int64
	rs := s.residencies()
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
		peaks[r.pool] = max(peaks[r.pool], usage)
	}
	return peaks
}
