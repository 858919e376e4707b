package multi

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dag"
)

// paperS1 builds schedule s1 of Figure 3 on a 1 blue + 1 red platform:
// T1 red [0,1), T2 blue [2,4), T3 red [1,4), T4 red [5,6), with
// communications (T1,T2) at tau=1 and (T2,T4) at tau=4.
// The paper works out: makespan 6, blue peak 2, red peak 5.
func paperS1(mBlue, mRed int64) *Schedule {
	g := dag.PaperExample()
	p := DualPlatform(1, 1, mBlue, mRed)
	s := NewSchedule(FromDual(g), p)
	s.Tasks[0] = Placement{Start: 0, Proc: 1} // T1 red
	s.Tasks[1] = Placement{Start: 2, Proc: 0} // T2 blue
	s.Tasks[2] = Placement{Start: 1, Proc: 1} // T3 red
	s.Tasks[3] = Placement{Start: 5, Proc: 1} // T4 red
	e12, _ := g.EdgeBetween(0, 1)
	e24, _ := g.EdgeBetween(1, 3)
	s.CommStart[e12.ID] = 1
	s.CommStart[e24.ID] = 4
	return s
}

// paperS2 builds a schedule in the spirit of Figure 4: same platform, both
// memory peaks at most 4, makespan 7 (the paper states s2 trades one extra
// time unit for the smaller peak): T1 red [0,1), T3 red [2,5), T2 blue
// [2,4), T4 red [6,7), comm (T1,T2) at 1, comm (T2,T4) at 5.
func paperS2(mBlue, mRed int64) *Schedule {
	g := dag.PaperExample()
	p := DualPlatform(1, 1, mBlue, mRed)
	s := NewSchedule(FromDual(g), p)
	s.Tasks[0] = Placement{Start: 0, Proc: 1}
	s.Tasks[1] = Placement{Start: 2, Proc: 0}
	s.Tasks[2] = Placement{Start: 2, Proc: 1}
	s.Tasks[3] = Placement{Start: 6, Proc: 1}
	e12, _ := g.EdgeBetween(0, 1)
	e24, _ := g.EdgeBetween(1, 3)
	s.CommStart[e12.ID] = 1
	s.CommStart[e24.ID] = 5
	return s
}

// usageAt returns the usage of pool k at time t: the size of the
// residencies Live at t.
func usageAt(s *Schedule, k int, t float64) int64 {
	var sum int64
	for _, r := range s.residencies() {
		if r.pool == k && Live(r.from, r.to, t) {
			sum += r.size
		}
	}
	return sum
}

// TestValidateRejectsShapeMismatch hands Validate schedules whose slices do
// not match the graph: it must report the mismatch, not index past them.
func TestValidateRejectsShapeMismatch(t *testing.T) {
	short := paperS1(5, 5)
	short.Tasks = short.Tasks[:2]
	noComm := paperS1(5, 5)
	noComm.CommStart = noComm.CommStart[:1]
	for name, s := range map[string]*Schedule{"short Tasks": short, "short CommStart": noComm} {
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "for a graph of 4 tasks and 4 edges") {
			t.Fatalf("%s: Validate = %v", name, err)
		}
	}
}

func TestS1MatchesPaperNumbers(t *testing.T) {
	s := paperS1(2, 5)
	if err := s.Validate(); err != nil {
		t.Fatalf("s1 should be valid with M=(2,5): %v", err)
	}
	if ms := s.Makespan(); ms != 6 {
		t.Fatalf("makespan = %g, want 6", ms)
	}
	blue, red := s.MemoryPeaks()[0], s.MemoryPeaks()[1]
	if blue != 2 || red != 5 {
		t.Fatalf("peaks = (%d,%d), want (2,5)", blue, red)
	}
}

func TestS1UsageAtKeyInstants(t *testing.T) {
	s := paperS1(5, 5)
	// Paper §3.2: RedMemUsed(T1)=3, BlueMemUsed(T2)=2, RedMemUsed(T3)=5,
	// RedMemUsed(T4)=3.
	if got := usageAt(s, 1, 0); got != 3 {
		t.Fatalf("red usage at T1 start = %d, want 3", got)
	}
	if got := usageAt(s, 0, 2); got != 2 {
		t.Fatalf("blue usage at T2 start = %d, want 2", got)
	}
	if got := usageAt(s, 1, 1); got != 5 {
		t.Fatalf("red usage at T3 start = %d, want 5", got)
	}
	if got := usageAt(s, 1, 5); got != 3 {
		t.Fatalf("red usage at T4 start = %d, want 3", got)
	}
}

func TestS1RejectedUnderTighterBound(t *testing.T) {
	// Paper: with M(blue)=M(red)=4, s1 is no longer acceptable.
	s := paperS1(4, 4)
	err := s.Validate()
	if err == nil {
		t.Fatal("s1 accepted with M=(4,4)")
	}
	if !strings.Contains(err.Error(), "pool 1 over capacity") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestS2ValidWithMemoryFourAndMakespanSeven(t *testing.T) {
	s := paperS2(4, 4)
	if err := s.Validate(); err != nil {
		t.Fatalf("s2 should be valid with M=(4,4): %v", err)
	}
	if ms := s.Makespan(); ms != 7 {
		t.Fatalf("makespan = %g, want 7", ms)
	}
	blue, red := s.MemoryPeaks()[0], s.MemoryPeaks()[1]
	if blue > 4 || red > 4 {
		t.Fatalf("peaks = (%d,%d), want <= 4", blue, red)
	}
}

func TestValidateCatchesPrecedenceViolation(t *testing.T) {
	s := paperS1(5, 5)
	s.Tasks[3].Start = 3 // T4 before comm (T2,T4) completes
	if err := s.Validate(); err == nil {
		t.Fatal("precedence violation accepted")
	}
}

func TestValidateCatchesIntraMemoryPrecedence(t *testing.T) {
	s := paperS1(5, 5)
	s.Tasks[2].Start = 0.5 // T3 starts before its parent T1 (same memory) finishes
	if err := s.Validate(); err == nil {
		t.Fatal("intra-memory precedence violation accepted")
	}
}

func TestValidateCatchesResourceOverlap(t *testing.T) {
	s := paperS1(5, 5)
	s.Tasks[1].Proc = 1  // move T2 to red: overlaps T3 [1,4)
	s.Tasks[1].Start = 2 // [2,4)
	e12, _ := s.Inst.G.EdgeBetween(0, 1)
	s.CommStart[e12.ID] = math.NaN() // now intra-memory
	if err := s.Validate(); err == nil {
		t.Fatal("processor overlap accepted")
	}
	if err := s.Validate(); !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestValidateCatchesCommBeforeProducer(t *testing.T) {
	s := paperS1(5, 5)
	e12, _ := s.Inst.G.EdgeBetween(0, 1)
	s.CommStart[e12.ID] = 0.5 // producer T1 finishes at 1
	if err := s.Validate(); err == nil {
		t.Fatal("early communication accepted")
	}
}

func TestValidateCatchesMissingCommStart(t *testing.T) {
	s := paperS1(5, 5)
	e12, _ := s.Inst.G.EdgeBetween(0, 1)
	s.CommStart[e12.ID] = math.NaN()
	if err := s.Validate(); err == nil {
		t.Fatal("missing communication start accepted")
	}
}

func TestValidateCatchesUnassignedTask(t *testing.T) {
	g := dag.PaperExample()
	s := NewSchedule(FromDual(g), DualPlatform(1, 1, 10, 10))
	if err := s.Validate(); err == nil {
		t.Fatal("empty schedule accepted")
	}
}

func TestValidateCatchesNegativeStart(t *testing.T) {
	s := paperS1(5, 5)
	s.Tasks[0].Start = -1
	if err := s.Validate(); err == nil {
		t.Fatal("negative start accepted")
	}
}

func TestDurationAndFinish(t *testing.T) {
	s := paperS1(5, 5)
	if d := s.Duration(0); d != 1 { // T1 on red
		t.Fatalf("Duration(T1) = %g, want 1", d)
	}
	if d := s.Duration(1); d != 2 { // T2 on blue
		t.Fatalf("Duration(T2) = %g, want 2", d)
	}
	if f := s.Finish(2); f != 4 { // T3 red [1,4)
		t.Fatalf("Finish(T3) = %g, want 4", f)
	}
}

func TestPoolOfAndIsCross(t *testing.T) {
	s := paperS1(5, 5)
	if s.PoolOf(0) != 1 || s.PoolOf(1) != 0 {
		t.Fatal("PoolOf wrong")
	}
	e12, _ := s.Inst.G.EdgeBetween(0, 1)
	e13, _ := s.Inst.G.EdgeBetween(0, 2)
	if !s.IsCross(e12.ID) {
		t.Fatal("edge T1->T2 should cross")
	}
	if s.IsCross(e13.ID) {
		t.Fatal("edge T1->T3 should not cross")
	}
}

func TestZeroDurationTasksDoNotConflict(t *testing.T) {
	g := dag.New()
	a := g.AddTask("a", 0, 0)
	b := g.AddTask("b", 0, 0)
	c := g.AddTask("c", 1, 1)
	g.MustAddEdge(a, b, 1, 0)
	g.MustAddEdge(b, c, 1, 0)
	p := DualPlatform(1, 0, 10, 10)
	s := NewSchedule(FromDual(g), p)
	s.Tasks[a] = Placement{Start: 0, Proc: 0}
	s.Tasks[b] = Placement{Start: 0, Proc: 0}
	s.Tasks[c] = Placement{Start: 0, Proc: 0}
	if err := s.Validate(); err != nil {
		t.Fatalf("zero-duration stacking rejected: %v", err)
	}
}

func TestTimelineSortedAndComplete(t *testing.T) {
	s := paperS1(5, 5)
	evs := s.Timeline()
	if len(evs) != 6 { // 4 tasks + 2 comms
		t.Fatalf("timeline has %d events, want 6", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatal("timeline not sorted")
		}
	}
	nComm := 0
	for _, e := range evs {
		if e.Kind == "comm" {
			nComm++
			if e.Proc != -1 {
				t.Fatal("comm event with processor")
			}
		}
	}
	if nComm != 2 {
		t.Fatalf("timeline has %d comms, want 2", nComm)
	}
}

func TestRenderMentionsPeaksAndMakespan(t *testing.T) {
	s := paperS1(5, 5)
	out := s.Render()
	for _, want := range []string{"makespan=6", "bluePeak=2", "redPeak=5", "T3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}
}

func TestUnboundedPlatformAlwaysFitsMemory(t *testing.T) {
	s := paperS1(dag.Unlimited, dag.Unlimited)
	if err := s.Validate(); err != nil {
		t.Fatalf("unbounded platform rejected: %v", err)
	}
}
