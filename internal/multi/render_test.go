package multi

import (
	"strings"
	"testing"

	"repro/internal/dag"
)

func TestSVGContainsAllElements(t *testing.T) {
	s := paperS1(2, 5)
	svg := s.SVG()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatal("not a complete SVG document")
	}
	for _, want := range []string{
		"proc 0 (blue)", "proc 1 (red)", "transfers",
		"T1", "T2", "T3", // task labels (T4 may be too narrow for text)
		"blue mem (peak 2)", "red mem (peak 5)",
		"<path", // memory step plots
	} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// Two cross communications -> at least two transfer boxes with titles.
	if strings.Count(svg, "-&gt;") != 2 {
		t.Fatalf("expected 2 transfer boxes, SVG has %d", strings.Count(svg, "-&gt;"))
	}
}

func TestSVGDeterministic(t *testing.T) {
	s := paperS1(2, 5)
	if s.SVG() != s.SVG() {
		t.Fatal("SVG output not deterministic")
	}
}

func TestSVGZeroDurationTasksVisible(t *testing.T) {
	g := dag.New()
	a := g.AddTask("a", 1, 1)
	b := g.AddTask("bcast", 0, 0)
	c := g.AddTask("c", 1, 1)
	g.MustAddEdge(a, b, 1, 0)
	g.MustAddEdge(b, c, 1, 0)
	p := DualPlatform(1, 0, 10, 0)
	s := NewSchedule(FromDual(g), p)
	s.Tasks[0] = Placement{Start: 0, Proc: 0}
	s.Tasks[1] = Placement{Start: 1, Proc: 0}
	s.Tasks[2] = Placement{Start: 1, Proc: 0}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	svg := s.SVG()
	// Three rect boxes for three tasks (plus lane and background rects).
	if strings.Count(svg, "<title>") < 3 {
		t.Fatal("zero-duration task box missing")
	}
}

func TestSVGEmptyScheduleDoesNotPanic(t *testing.T) {
	g := dag.New()
	s := NewSchedule(FromDual(g), DualPlatform(1, 1, 1, 1))
	svg := s.SVG()
	if !strings.Contains(svg, "</svg>") {
		t.Fatal("bad SVG for empty schedule")
	}
}
