package memsched

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

var updateAnswers = flag.Bool("update", false, "rewrite testdata/session_answers.txt from the current engine")

// answerCorpusGraphs is the graph half of the golden corpus: the paper's
// example, four small random DAGs, one large random DAG and the two tiled
// factorisations at n=4.
func answerCorpusGraphs(t *testing.T) []struct {
	name string
	g    *Graph
} {
	t.Helper()
	type named = struct {
		name string
		g    *Graph
	}
	out := []named{{"paper", PaperExample()}}
	for seed := int64(1); seed <= 4; seed++ {
		g, err := GenerateRandom(SmallRandParams(), seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, named{fmt.Sprintf("small%d", seed), g})
	}
	large, err := GenerateRandom(LargeRandParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, named{"large1", large})
	lu, err := LUGraph(DefaultLinalgConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	chol, err := CholeskyGraph(DefaultLinalgConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, named{"lu4", lu}, named{"chol4", chol})
}

// placementsOf reads the task placements and communication starts of
// whatever schedule res carries. It goes through reflection so that the
// digest depends only on the answer, not on the schedule type holding it.
func placementsOf(res *Result) (starts []float64, procs []int, comm []float64) {
	v := reflect.ValueOf(res).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !v.Type().Field(i).IsExported() || f.Kind() != reflect.Pointer || f.IsNil() {
			continue
		}
		s := f.Elem()
		if s.Kind() != reflect.Struct {
			continue
		}
		tasks, cs := s.FieldByName("Tasks"), s.FieldByName("CommStart")
		if !tasks.IsValid() || !cs.IsValid() {
			continue
		}
		for j := 0; j < tasks.Len(); j++ {
			starts = append(starts, tasks.Index(j).FieldByName("Start").Float())
			procs = append(procs, int(tasks.Index(j).FieldByName("Proc").Int()))
		}
		for j := 0; j < cs.Len(); j++ {
			comm = append(comm, cs.Index(j).Float())
		}
	}
	return starts, procs, comm
}

// answerDigest hashes everything an answer is judged by: the makespan
// bits, every placement, every communication start, the peaks, the error
// text and the search/simulation/replay counters.
func answerDigest(res *Result, err error) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	if err != nil {
		h.Write([]byte("error:" + err.Error()))
		return hex.EncodeToString(h.Sum(nil))
	}
	put(math.Float64bits(res.Makespan()))
	starts, procs, comm := placementsOf(res)
	put(uint64(len(starts)))
	for i := range starts {
		put(math.Float64bits(starts[i]))
		put(uint64(procs[i]))
	}
	put(uint64(len(comm)))
	for _, c := range comm {
		put(math.Float64bits(c))
	}
	peaks := res.PeakResidency()
	put(uint64(len(peaks)))
	for _, p := range peaks {
		put(uint64(p))
	}
	put(uint64(res.Stats.Nodes))
	if res.Stats.Proven {
		put(1)
	} else {
		put(0)
	}
	put(uint64(res.Stats.Events))
	put(uint64(res.Stats.ReplayedPlacements))
	return hex.EncodeToString(h.Sum(nil))
}

// sessionAnswers runs the golden corpus through the Session API and returns
// one "case digest" line per call, in a fixed order.
func sessionAnswers(t *testing.T) []string {
	ctx := context.Background()
	var lines []string
	add := func(name string, res *Result, err error) {
		if err == nil && res != nil && res.Stats.Makespan != res.Makespan() {
			t.Fatalf("%s: Stats.Makespan %g, Makespan() %g", name, res.Stats.Makespan, res.Makespan())
		}
		if err == nil && res != nil && !math.IsInf(res.Makespan(), 1) {
			if verr := res.Validate(); verr != nil {
				t.Fatalf("%s: %v", name, verr)
			}
		}
		lines = append(lines, name+" "+answerDigest(res, err))
	}
	schedulers := []string{"memheft", "memminmin", "heft", "minmin"}
	for _, gc := range answerCorpusGraphs(t) {
		sess, err := NewSession(gc.g)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range [][2]int{{1, 1}, {2, 2}, {12, 3}} {
			unbounded := NewDualPlatform(procs[0], procs[1], Unlimited, Unlimited)
			ref, err := sess.Schedule(ctx, unbounded, WithScheduler("heft"))
			if err != nil {
				t.Fatalf("%s heft: %v", gc.name, err)
			}
			peak := slices.Max(ref.PeakResidency())
			platforms := []Platform{unbounded}
			labels := []string{"inf"}
			for _, alpha := range []float64{0.9, 0.7, 0.5} {
				c := int64(alpha * float64(peak))
				platforms = append(platforms, NewDualPlatform(procs[0], procs[1], c, c))
				labels = append(labels, fmt.Sprintf("a%g", alpha))
			}
			prefix := fmt.Sprintf("%s/p%dx%d", gc.name, procs[0], procs[1])
			lb, lberr := sess.LowerBound(unbounded)
			if lberr != nil {
				lines = append(lines, prefix+"/lowerbound error:"+lberr.Error())
			} else {
				lines = append(lines, fmt.Sprintf("%s/lowerbound %016x", prefix, math.Float64bits(lb)))
			}
			for pi, p := range platforms {
				at := prefix + "/" + labels[pi]
				for _, name := range schedulers {
					for seed := int64(0); seed <= 1; seed++ {
						res, err := sess.Schedule(ctx, p, WithScheduler(name), WithSeed(seed))
						add(fmt.Sprintf("%s/%s/seed%d", at, name, seed), res, err)
					}
				}
				for seed := int64(0); seed <= 1; seed++ {
					res, err := sess.Schedule(ctx, p, WithInsertion(), WithSeed(seed))
					add(fmt.Sprintf("%s/memheft-insertion/seed%d", at, seed), res, err)
				}
				for _, pol := range []SimPolicy{SimRankPolicy, SimEFTPolicy} {
					res, err := sess.Simulate(ctx, p, WithPolicy(pol))
					add(fmt.Sprintf("%s/sim-%s", at, pol), res, err)
				}
				if gc.g.NumTasks() <= 8 {
					res, err := sess.Optimal(ctx, p, WithMaxNodes(20000))
					add(at+"/optimal", res, err)
				}
			}
			// One descending warm-start chain per scheduler, on its own
			// fork so earlier calls leave no trace behind.
			for _, name := range schedulers {
				chain := sess.Fork()
				for pi, p := range platforms {
					res, err := chain.Schedule(ctx, p, WithScheduler(name), WithSeed(1), WithWarmStart(true))
					add(fmt.Sprintf("%s/warm-%s/%s", prefix, name, labels[pi]), res, err)
				}
			}
		}
	}
	return lines
}

// TestSessionAnswersGolden pins every answer of the golden corpus —
// heuristics, the insertion ablation, warm-start chains, Simulate, Optimal
// and LowerBound on 2-pool platforms — to digests committed in testdata.
// Regenerate with go test -run TestSessionAnswersGolden -update . only
// when a change of answers is intended.
func TestSessionAnswersGolden(t *testing.T) {
	const path = "testdata/session_answers.txt"
	got := sessionAnswers(t)
	if *updateAnswers {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d answers, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("answer %d:\n got %s\nwant %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d answers differ from the golden", bad, len(want))
	}
}
