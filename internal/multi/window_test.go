package multi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/daggen"
	"repro/internal/memfn"
)

// The staircase window (Partial.forget) only drops pieces once a staircase
// holds at least 64 of them, which the small equivalence instances never
// reach. These tests run the engine at sizes where most of every bounded
// staircase is forgotten, and check that no answer moves.

// daggenInstance is a daggen graph with its dual timing columns
// (FromDual), widened to k columns by seeded extra accelerator columns.
func daggenInstance(t *testing.T, seed int64, n, k int) *Instance {
	t.Helper()
	params := daggen.LargeParams()
	params.Size = n
	g, err := daggen.Generate(params, seed)
	if err != nil {
		t.Fatal(err)
	}
	in := FromDual(g)
	if k == 2 {
		return in
	}
	rng := rand.New(rand.NewSource(seed))
	for i, row := range in.Times {
		wide := append(make([]float64, 0, k), row...)
		for len(wide) < k {
			wide = append(wide, math.Round(row[rng.Intn(2)]*(0.5+rng.Float64())))
		}
		in.Times[i] = wide
	}
	return in
}

// fullStaircases rebuilds every pool's staircase of a complete schedule
// from scratch, with the reservations Commit makes and nothing forgotten.
// A staircase is the sum of its reservations in canonical form, so the
// commit order does not matter.
func fullStaircases(s *Schedule) []*memfn.Staircase {
	g := s.Inst.G
	free := make([]*memfn.Staircase, s.Platform.NumPools())
	for k, pool := range s.Platform.Pools {
		free[k] = memfn.New(pool.Capacity)
	}
	for i := range s.Tasks {
		id := dag.TaskID(i)
		k := s.PoolOf(id)
		start, fin := s.Tasks[i].Start, s.Finish(id)
		cmu := 0.0
		for _, e := range g.In(id) {
			if edge := g.Edge(e); s.PoolOf(edge.From) != k {
				cmu = max(cmu, edge.Comm)
			}
		}
		for _, e := range g.In(id) {
			edge := g.Edge(e)
			if src := s.PoolOf(edge.From); src != k {
				free[k].Reserve(start-cmu, fin, edge.File)
				free[src].Release(start, edge.File)
				continue
			}
			free[k].Release(fin, edge.File)
		}
		for _, e := range g.Out(id) {
			free[k].Reserve(start, memfn.Inf, g.Edge(e).File)
		}
	}
	return free
}

// TestWindowMatchesReferenceAtScale runs MemHEFT, MemMinMin and the
// insertion variant on graphs of 300 and 800 tasks over 2-4 pools, from
// unbounded capacities down to 0.3 times the unbounded MemHEFT peak, and
// requires every answer to equal its reference bit for bit, every
// descending Record/Replay chain to equal the cold runs, and the append
// policy to have forgotten most of each long staircase while the insertion
// policy forgot nothing.
func TestWindowMatchesReferenceAtScale(t *testing.T) {
	alphas := []float64{1, 0.8, 0.6, 0.45, 0.3}
	forgotten, checked := 0, 0
	for _, n := range []int{300, 800} {
		for _, k := range []int{2, 3, 4} {
			for _, source := range []string{"daggen", "random"} {
				seed := int64(10*n + k)
				var in *Instance
				if source == "daggen" {
					in = daggenInstance(t, seed, n, k)
				} else {
					in = randomInstance(seed, n, k)
				}
				pools := make([]Pool, k)
				for j := range pools {
					pools[j] = Pool{Procs: 1 + (j+n)%3, Capacity: dag.Unlimited}
				}
				unbounded := NewPlatform(pools...)
				ref, err := MemHEFT(tctx, in, unbounded, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				peak := slices.Max(ref.MemoryPeaks())
				plats := []Platform{unbounded}
				for _, a := range alphas {
					plats = append(plats, unbounded.WithUniformBounds(int64(a*float64(peak))))
				}
				caches := NewCaches()
				var prev [2]*Trace // the warm chain's last trace per heuristic
				for pi, p := range plats {
					tag := fmt.Sprintf("%s n=%d k=%d %v", source, n, k, p)
					for hi, h := range []struct {
						name      string
						fast, ref Func
					}{{"MemHEFT", MemHEFT, MemHEFTReference}, {"MemMinMin", MemMinMin, MemMinMinReference}} {
						cold, coldErr := h.fast(tctx, in, p, Options{Seed: seed, Caches: caches})
						want, wantErr := h.ref(tctx, in, p, Options{Seed: seed})
						sameOutcome(t, tag+" "+h.name, cold, coldErr, want, wantErr)
						rec := &Trace{}
						warm, warmErr := h.fast(tctx, in, p, Options{Seed: seed, Caches: caches, Record: rec, Replay: prev[hi]})
						sameOutcome(t, tag+" "+h.name+" warm", warm, warmErr, cold, coldErr)
						prev[hi] = rec
						if coldErr == nil && pi > 0 {
							f, c := checkWindows(t, tag+" "+h.name, in, p, rec, cold)
							forgotten += f
							checked += c
						}
					}
					ins, insRefErr := insertionReference(in, p, seed)
					insGot, insErr := MemHEFTInsertion(tctx, in, p, Options{Seed: seed, Caches: caches})
					sameOutcome(t, tag+" insertion", insGot, insErr, ins.Schedule(), insRefErr)
					if insErr == nil && pi > 0 {
						for j, f := range fullStaircases(insGot) {
							if ins.free[j].Len() != f.Len() {
								t.Fatalf("%s insertion pool %d: %d pieces, whole staircase %d", tag, j, ins.free[j].Len(), f.Len())
							}
						}
					}
				}
			}
		}
	}
	if checked == 0 || forgotten*10 < checked*9 {
		t.Fatalf("%d of %d long staircases were cut to a quarter or less", forgotten, checked)
	}
	t.Logf("%d of %d long staircases were cut to a quarter or less", forgotten, checked)
}

// checkWindows commits a complete recorded run on a fresh Partial and
// compares each bounded pool's staircase with the whole one rebuilt from
// the schedule: equal values and suffix minima from the earliest
// processor availability of the pool on, which no cut passes, and equal
// final values. It returns how many staircases of at least 256 pieces it
// saw, and how many of those the window cut to a quarter or less.
func checkWindows(t *testing.T, tag string, in *Instance, p Platform, rec *Trace, want *Schedule) (forgotten, checked int) {
	t.Helper()
	st := NewPartial(in, p)
	defer recycle(st)
	for _, c := range rec.Cands {
		st.Commit(c)
	}
	sameSchedule(t, tag+" recommitted", st.Schedule(), want)
	for j, whole := range fullStaircases(want) {
		win := st.free[j]
		if win.FinalValue() != whole.FinalValue() {
			t.Fatalf("%s pool %d: final value %d, whole staircase %d", tag, j, win.FinalValue(), whole.FinalValue())
		}
		from := slices.Min(st.availProc[st.procLo[j]:st.procHi[j]])
		times, _ := whole.Breakpoints()
		for _, x := range append(times, from) {
			if x < from {
				continue
			}
			if win.Value(x) != whole.Value(x) || win.SlackAt(x) != whole.SlackAt(x) {
				t.Fatalf("%s pool %d at t=%g: window value %d slack %d, whole staircase %d and %d",
					tag, j, x, win.Value(x), win.SlackAt(x), whole.Value(x), whole.SlackAt(x))
			}
		}
		if whole.Len() >= 256 {
			checked++
			if 4*win.Len() <= whole.Len() {
				forgotten++
			}
		}
	}
	return forgotten, checked
}
