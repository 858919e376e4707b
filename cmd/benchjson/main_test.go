package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSuiteTiny runs the harness on tiny dual, k-pool, peak and inline cases
// and checks the report is well-formed JSON with sane numbers.
func TestRunSuiteTiny(t *testing.T) {
	rep, err := runSuite([]Case{
		{Name: "tiny", Scheduler: "memheft", Size: 30, Alpha: 0.8},
		{Name: "tiny-k3", Scheduler: "memheft", Size: 30, Alpha: 0.5, Pools: 3},
		{Name: "tiny-k3-ref", Scheduler: "memheft", Size: 30, Alpha: 0.5, Pools: 3, Ref: true},
		{Name: "tiny-peaks", Size: 30, Alpha: 0.8, Peaks: true},
		{Name: "tiny-peaks-k3", Size: 30, Alpha: 0.5, Pools: 3, Peaks: true},
		{Name: "tiny-router", Size: 30, Inline: "router"},
		{Name: "tiny-replica", Size: 30, Inline: "replica"},
		{Name: "tiny-replica-miss", Size: 30, Inline: "replica-miss"},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tiny", "tiny-k3", "tiny-k3-ref", "tiny-peaks", "tiny-peaks-k3", "tiny-router", "tiny-replica", "tiny-replica-miss"} {
		r, ok := rep.Benchmarks[name]
		if !ok || r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Fatalf("malformed result for %s: %+v", name, rep)
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
}

// report is a test helper assembling a Report from name -> ns/op.
func report(ns map[string]int64) *Report {
	rep := &Report{Suite: "scheduler-throughput", Benchmarks: map[string]Result{}}
	for name, v := range ns {
		rep.Benchmarks[name] = Result{NsPerOp: v, Iterations: 1}
	}
	return rep
}

// TestCompareReportsFailsOnRegression is the unit test of the CI gate: a
// synthetic 1.3x regression must fail a 1.25x threshold and pass a 1.5x
// one; improvements and within-threshold drift must always pass.
func TestCompareReportsFailsOnRegression(t *testing.T) {
	base := report(map[string]int64{"A": 1000, "B": 2000, "C": 500})
	fresh := report(map[string]int64{"A": 1300, "B": 1900, "C": 505})

	regressions, _ := compareReports(base, fresh, 1.25)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "A:") {
		t.Fatalf("1.3x regression at threshold 1.25: %v", regressions)
	}
	if regressions, _ := compareReports(base, fresh, 1.5); len(regressions) != 0 {
		t.Fatalf("1.3x regression failed a 1.5x threshold: %v", regressions)
	}
	// Exactly at the threshold is not a regression (strictly-greater gate).
	exact := report(map[string]int64{"A": 1250, "B": 2000, "C": 500})
	if regressions, _ := compareReports(base, exact, 1.25); len(regressions) != 0 {
		t.Fatalf("exact-threshold ratio flagged: %v", regressions)
	}
}

// TestCompareReportsSuiteDrift: benchmarks present on only one side are
// notes, never failures — the tracked suite may grow or shrink.
func TestCompareReportsSuiteDrift(t *testing.T) {
	base := report(map[string]int64{"A": 1000, "Gone": 100})
	fresh := report(map[string]int64{"A": 1000, "New": 100})
	regressions, notes := compareReports(base, fresh, 1.25)
	if len(regressions) != 0 {
		t.Fatalf("drift flagged as regression: %v", regressions)
	}
	joined := strings.Join(notes, "\n")
	if !strings.Contains(joined, "Gone") || !strings.Contains(joined, "New") {
		t.Fatalf("drift not noted: %v", notes)
	}
}

// TestReadReport covers the gate's file handling: valid report round-trips,
// junk and empty reports are rejected.
func TestReadReport(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	rep := report(map[string]int64{"A": 123})
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(good)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks["A"].NsPerOp != 123 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := readReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(junk); err == nil {
		t.Fatal("junk file accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"suite":"x","benchmarks":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(empty); err == nil {
		t.Fatal("empty report accepted")
	}
}
