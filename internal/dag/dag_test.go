package dag

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

func TestAddTaskAssignsDenseIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		if id := g.AddTask("", 1, 1); id != TaskID(i) {
			t.Fatalf("task %d got ID %d", i, id)
		}
	}
	if g.NumTasks() != 5 {
		t.Fatalf("NumTasks = %d, want 5", g.NumTasks())
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New()
	a := g.AddTask("a", 1, 1)
	if _, err := g.AddEdge(a, a, 1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestAddEdgeRejectsDuplicate(t *testing.T) {
	g := New()
	a := g.AddTask("a", 1, 1)
	b := g.AddTask("b", 1, 1)
	g.MustAddEdge(a, b, 1, 1)
	if _, err := g.AddEdge(a, b, 2, 2); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestAddEdgePanicsOnBadEndpoint(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range endpoint")
		}
	}()
	g := New()
	g.AddTask("a", 1, 1)
	g.AddEdge(0, 7, 1, 1)
}

func TestChildrenParents(t *testing.T) {
	g := PaperExample()
	if got := g.Children(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Children(T1) = %v", got)
	}
	if got := g.Parents(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Parents(T4) = %v", got)
	}
	if got := g.Parents(0); len(got) != 0 {
		t.Fatalf("Parents(T1) = %v, want empty", got)
	}
}

func TestEdgeBetween(t *testing.T) {
	g := PaperExample()
	e, ok := g.EdgeBetween(0, 2)
	if !ok || e.File != 2 || e.Comm != 1 {
		t.Fatalf("EdgeBetween(0,2) = %+v, %v", e, ok)
	}
	if _, ok := g.EdgeBetween(2, 0); ok {
		t.Fatal("reverse edge should not exist")
	}
	if _, ok := g.EdgeBetween(0, 3); ok {
		t.Fatal("absent edge reported present")
	}
}

func TestSourcesSinks(t *testing.T) {
	g := PaperExample()
	if s := g.Sources(); len(s) != 1 || s[0] != 0 {
		t.Fatalf("Sources = %v", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Fatalf("Sinks = %v", s)
	}
}

func TestMemReqMatchesPaper(t *testing.T) {
	g := PaperExample()
	// Paper §3.2: MemReq(T3) = F(1,3) + F(3,4) = 4.
	if got := g.MemReq(2); got != 4 {
		t.Fatalf("MemReq(T3) = %d, want 4", got)
	}
	if got := g.MemReq(0); got != 3 { // outputs 1+2
		t.Fatalf("MemReq(T1) = %d, want 3", got)
	}
	if got := g.MemReq(3); got != 3 { // inputs 1+2
		t.Fatalf("MemReq(T4) = %d, want 3", got)
	}
}

func TestTopologicalOrder(t *testing.T) {
	g := PaperExample()
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(EdgeID(e))
		if pos[edge.From] >= pos[edge.To] {
			t.Fatalf("edge %d->%d violates order %v", edge.From, edge.To, order)
		}
	}
}

func TestTopologicalOrderDetectsCycle(t *testing.T) {
	g := New()
	a := g.AddTask("a", 1, 1)
	b := g.AddTask("b", 1, 1)
	c := g.AddTask("c", 1, 1)
	g.MustAddEdge(a, b, 1, 1)
	g.MustAddEdge(b, c, 1, 1)
	g.MustAddEdge(c, a, 1, 1)
	if _, err := g.TopologicalOrder(); err != ErrCyclic {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
	if err := g.Validate(); err != ErrCyclic {
		t.Fatalf("Validate = %v, want ErrCyclic", err)
	}
}

func TestReverseTopologicalOrder(t *testing.T) {
	g := PaperExample()
	rev, err := g.ReverseTopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[TaskID]int)
	for i, id := range rev {
		pos[id] = i
	}
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(EdgeID(e))
		if pos[edge.From] <= pos[edge.To] {
			t.Fatalf("edge %d->%d violates reverse order %v", edge.From, edge.To, rev)
		}
	}
}

func TestLevels(t *testing.T) {
	g := PaperExample()
	level, n, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 2}
	for i, l := range level {
		if l != want[i] {
			t.Fatalf("level[%d] = %d, want %d", i, l, want[i])
		}
	}
	if n != 3 {
		t.Fatalf("levels = %d, want 3", n)
	}
}

func TestUpwardRanksPaperExample(t *testing.T) {
	g := PaperExample()
	ranks, err := g.UpwardRanks(nil)
	if err != nil {
		t.Fatal(err)
	}
	// rank(T4) = (1+1)/2 = 1
	// rank(T2) = (2+2)/2 + (1 + 0.5) = 3.5
	// rank(T3) = (6+3)/2 + (1 + 0.5) = 6
	// rank(T1) = (3+1)/2 + max(3.5+0.5, 6+0.5) = 2 + 6.5 = 8.5
	want := []float64{8.5, 3.5, 6, 1}
	for i, r := range ranks {
		if r != want[i] {
			t.Fatalf("rank[%d] = %g, want %g", i, r, want[i])
		}
	}
}

func TestCriticalPathLength(t *testing.T) {
	g := PaperExample()
	// Cheapest times: T1=1, T2=2, T3=3, T4=1; longest path T1-T3-T4 = 5.
	cp, err := g.CriticalPathLength()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 5 {
		t.Fatalf("CriticalPathLength = %g, want 5", cp)
	}
}

func TestDescendants(t *testing.T) {
	g := PaperExample()
	d := g.Descendants(1) // T2 reaches only T4
	want := []bool{false, false, false, true}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Descendants(T2)[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	d0 := g.Descendants(0)
	if !d0[1] || !d0[2] || !d0[3] || d0[0] {
		t.Fatalf("Descendants(T1) = %v", d0)
	}
}

func TestTotals(t *testing.T) {
	g := PaperExample()
	if got := g.TotalFiles(); got != 6 {
		t.Fatalf("TotalFiles = %d, want 6", got)
	}
	if got := g.TotalWork(true); got != 12 {
		t.Fatalf("TotalWork(blue) = %g, want 12", got)
	}
	if got := g.TotalWork(false); got != 7 {
		t.Fatalf("TotalWork(red) = %g, want 7", got)
	}
	if got := g.TotalMinWork(); got != 7 {
		t.Fatalf("TotalMinWork = %g, want 7", got)
	}
	if got := g.MaxTime(); got != 23 { // 12 + 7 + 4
		t.Fatalf("MaxTime = %g, want 23", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := PaperExample()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	back := New()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != g.NumTasks() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			back.NumTasks(), back.NumEdges(), g.NumTasks(), g.NumEdges())
	}
	for i := 0; i < g.NumTasks(); i++ {
		if back.Task(TaskID(i)) != g.Task(TaskID(i)) {
			t.Fatalf("task %d differs after round trip", i)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		if back.Edge(EdgeID(e)) != g.Edge(EdgeID(e)) {
			t.Fatalf("edge %d differs after round trip", e)
		}
	}
}

func TestReadWrite(t *testing.T) {
	g := PaperExample()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != 4 || back.NumEdges() != 4 {
		t.Fatalf("Read produced %d tasks %d edges", back.NumTasks(), back.NumEdges())
	}
}

func TestReadRejectsBadEdges(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"tasks":[{"wblue":1,"wred":1}],"edges":[{"from":0,"to":5,"file":1,"comm":1}]}`)); err == nil {
		t.Fatal("edge to missing task accepted")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDOTDeterministic(t *testing.T) {
	g := PaperExample()
	a, b := g.DOT("dex"), g.DOT("dex")
	if a != b {
		t.Fatal("DOT output not deterministic")
	}
	for _, want := range []string{"digraph \"dex\"", "n0 -> n1", "F=2 C=1", "T3"} {
		if !strings.Contains(a, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, a)
		}
	}
}

func TestClone(t *testing.T) {
	g := PaperExample()
	c := g.Clone()
	c.AddTask("extra", 1, 1)
	c.MustAddEdge(3, 4, 1, 1)
	if g.NumTasks() != 4 || g.NumEdges() != 4 {
		t.Fatal("mutating clone affected original")
	}
	if c.NumTasks() != 5 || c.NumEdges() != 5 {
		t.Fatal("clone mutation lost")
	}
}

func TestValidateRejectsNegatives(t *testing.T) {
	g := New()
	g.AddTask("bad", -1, 1)
	if err := g.Validate(); err == nil {
		t.Fatal("negative processing time accepted")
	}
	g2 := New()
	a := g2.AddTask("a", 1, 1)
	b := g2.AddTask("b", 1, 1)
	g2.MustAddEdge(a, b, -3, 1)
	if err := g2.Validate(); err == nil {
		t.Fatal("negative file size accepted")
	}
	g3 := New()
	a = g3.AddTask("a", 1, 1)
	b = g3.AddTask("b", 1, 1)
	g3.MustAddEdge(a, b, 3, -1)
	if err := g3.Validate(); err == nil {
		t.Fatal("negative comm time accepted")
	}
}

// TestValidateRejectsOverflowingTotals pins the conservative totals bound:
// task and communication times must sum to a finite value, file sizes to
// at most platform.Unlimited, and the bound holds even where no schedule
// would overflow.
func TestValidateRejectsOverflowingTotals(t *testing.T) {
	chain := New()
	a := chain.AddTask("a", 1e308, 1e308)
	b := chain.AddTask("b", 1, 1e308)
	chain.MustAddEdge(a, b, 1, 0)
	independent := New()
	independent.AddTask("a", 1e308, 0)
	independent.AddTask("b", 0, 1e308)
	comm := New()
	a = comm.AddTask("a", 1e308, 1)
	b = comm.AddTask("b", 1, 1)
	comm.MustAddEdge(a, b, 1, 1e308)
	nan := New()
	nan.AddTask("a", math.NaN(), 1)
	files := New()
	a = files.AddTask("a", 1, 1)
	b = files.AddTask("b", 1, 1)
	c := files.AddTask("c", 1, 1)
	files.MustAddEdge(a, c, platform.Unlimited/2+1, 0)
	files.MustAddEdge(b, c, platform.Unlimited/2, 0)
	huge := New()
	a = huge.AddTask("a", 1, 1)
	b = huge.AddTask("b", 1, 1)
	huge.MustAddEdge(a, b, math.MaxInt64, 0)
	for name, g := range map[string]*Graph{"chain": chain, "independent": independent, "comm": comm, "nan": nan} {
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Fatalf("%s: Validate = %v, want the finite-sum error", name, err)
		}
	}
	for name, g := range map[string]*Graph{"files": files, "huge": huge} {
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "file sizes sum past") {
			t.Fatalf("%s: Validate = %v, want the file-sum error", name, err)
		}
	}

	atBound := New()
	a = atBound.AddTask("a", math.MaxFloat64/2, 0)
	b = atBound.AddTask("b", 0, math.MaxFloat64/2)
	c = atBound.AddTask("c", 1, 1)
	atBound.MustAddEdge(a, c, platform.Unlimited/2, 0)
	atBound.MustAddEdge(b, c, platform.Unlimited/2, 0)
	if err := atBound.Validate(); err != nil {
		t.Fatalf("totals at the bound rejected: %v", err)
	}
}

func TestChainFixture(t *testing.T) {
	g := Chain(5, 2, 3, 4, 1)
	if g.NumTasks() != 5 || g.NumEdges() != 4 {
		t.Fatalf("chain shape %d/%d", g.NumTasks(), g.NumEdges())
	}
	if len(g.Sources()) != 1 || len(g.Sinks()) != 1 {
		t.Fatal("chain should have one source and one sink")
	}
	_, n, err := g.Levels()
	if err != nil || n != 5 {
		t.Fatalf("chain levels = %d (%v), want 5", n, err)
	}
}

func TestForkJoinFixture(t *testing.T) {
	g := ForkJoin(4, 1, 1, 2, 1)
	if g.NumTasks() != 6 || g.NumEdges() != 8 {
		t.Fatalf("forkjoin shape %d/%d", g.NumTasks(), g.NumEdges())
	}
	st, err := g.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxWidth != 4 || st.Levels != 3 {
		t.Fatalf("forkjoin stats %+v", st)
	}
	if st.MaxMemReq != 8 { // fork: 4 outputs of size 2
		t.Fatalf("MaxMemReq = %d, want 8", st.MaxMemReq)
	}
}

func TestComputeStatsPaperExample(t *testing.T) {
	g := PaperExample()
	st, err := g.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != 4 || st.Edges != 4 || st.Sources != 1 || st.Sinks != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Fictitious != 0 || st.MaxWidth != 2 || st.Levels != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.CPLength != 5 || st.MaxMemReq != 4 {
		t.Fatalf("stats %+v", st)
	}
}

// propertyRandomDAG builds a random DAG from a seed for property tests:
// edges only go from lower to higher IDs, so the result is always acyclic.
func propertyRandomDAG(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < n; i++ {
		g.AddTask("", float64(rng.Intn(20)+1), float64(rng.Intn(20)+1))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				g.MustAddEdge(TaskID(i), TaskID(j), int64(rng.Intn(10)+1), float64(rng.Intn(10)+1))
			}
		}
	}
	return g
}

func TestPropertyTopoOrderIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		g := propertyRandomDAG(seed, 12)
		order, err := g.TopologicalOrder()
		if err != nil {
			return false
		}
		seen := make(map[TaskID]bool)
		for _, id := range order {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(seen) == g.NumTasks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRanksDecreaseAlongEdges(t *testing.T) {
	f := func(seed int64) bool {
		g := propertyRandomDAG(seed, 12)
		ranks, err := g.UpwardRanks(nil)
		if err != nil {
			return false
		}
		for e := 0; e < g.NumEdges(); e++ {
			edge := g.Edge(EdgeID(e))
			if ranks[edge.From] <= ranks[edge.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := propertyRandomDAG(seed, 10)
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		back := New()
		if err := json.Unmarshal(data, back); err != nil {
			return false
		}
		if back.NumTasks() != g.NumTasks() || back.NumEdges() != g.NumEdges() {
			return false
		}
		for e := 0; e < g.NumEdges(); e++ {
			if back.Edge(EdgeID(e)) != g.Edge(EdgeID(e)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
