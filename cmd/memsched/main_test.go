package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunExample(t *testing.T) {
	if err := run(io.Discard, "", true, "memheft", 1, 1, 5, 5, 1, 0, false, "", false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithTimelineAndJSON(t *testing.T) {
	if err := run(io.Discard, "", true, "memminmin", 1, 1, 4, 4, 1, 0, true, "", true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnlimitedBounds(t *testing.T) {
	if err := run(io.Discard, "", true, "heft", 2, 2, -1, -1, 1, 0, false, "", false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.json")
	data := `{"tasks":[{"name":"a","wblue":1,"wred":2},{"name":"b","wblue":2,"wred":1}],
	          "edges":[{"from":0,"to":1,"file":1,"comm":1}]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, path, false, "memheft", 1, 1, 10, 10, 1, 0, false, "", false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesDot(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "g.dot")
	if err := run(io.Discard, "", true, "memheft", 1, 1, 10, 10, 1, 0, false, dot, false, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Fatal("dot output missing digraph")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "", false, "memheft", 1, 1, 5, 5, 1, 0, false, "", false, ""); err == nil {
		t.Fatal("missing graph accepted")
	}
	if err := run(io.Discard, "", true, "bogus", 1, 1, 5, 5, 1, 0, false, "", false, ""); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if err := run(io.Discard, "/nonexistent/file.json", false, "memheft", 1, 1, 5, 5, 1, 0, false, "", false, ""); err == nil {
		t.Fatal("missing file accepted")
	}
	// Infeasible bounds surface the scheduler error.
	if err := run(io.Discard, "", true, "memheft", 1, 1, 2, 2, 1, 0, false, "", false, ""); err == nil {
		t.Fatal("infeasible bounds accepted")
	}
}

func TestRunWritesSVG(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "g.svg")
	if err := run(io.Discard, "", true, "memheft", 1, 1, 10, 10, 1, 0, false, "", false, svg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Fatal("svg output missing <svg>")
	}
}
