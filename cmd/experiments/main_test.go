package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable1(t *testing.T) {
	dir := t.TempDir()
	if err := run(tctx, "table1", "quick", 1, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []string{"getrf", "gemm", "trsm_l", "trsm_u", "potrf", "syrk"} {
		if !strings.Contains(string(data), kernel) {
			t.Fatalf("table1.md missing %s", kernel)
		}
	}
	if !strings.Contains(string(data), "450") || !strings.Contains(string(data), "1450") {
		t.Fatal("table1.md missing Table 1 values")
	}
}

func TestRunFig11Quick(t *testing.T) {
	dir := t.TempDir()
	if err := run(tctx, "fig11", "quick", 1, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig11.csv", "fig11.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
	}
	data, _ := os.ReadFile(filepath.Join(dir, "fig11.csv"))
	if !strings.HasPrefix(string(data), "memory,heft,minmin,memheft,memminmin,lowerbound") {
		t.Fatalf("fig11.csv header: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestRunFig12QuickWritesBothPanels(t *testing.T) {
	dir := t.TempDir()
	if err := run(tctx, "fig12", "quick", 1, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig12_makespan.csv", "fig12_success.csv", "fig12_makespan.md", "fig12_success.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s missing", name)
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	dir := t.TempDir()
	if err := run(tctx, "table1", "enormous", 1, dir); err == nil {
		t.Fatal("bad scale accepted")
	}
	if err := run(tctx, "fig99", "quick", 1, dir); err == nil {
		t.Fatal("bad figure accepted")
	}
}

func TestRunExtensionFigures(t *testing.T) {
	dir := t.TempDir()
	for _, fig := range []string{"ext-insertion", "ext-online", "ext-multipool"} {
		if err := run(tctx, fig, "quick", 1, dir); err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		if _, err := os.Stat(filepath.Join(dir, fig+".csv")); err != nil {
			t.Fatalf("%s output missing", fig)
		}
	}
}

// TestRunAllQuick runs the whole quick campaign and compares the SHA-256 of
// every output file with testdata/quick_digests.txt. The four fig10 files
// are written but not compared: their Optimal column runs under a 1 s
// per-search timer, and under the race detector a search takes up to
// ~0.99 s of it, so a loaded host could stop one on the timer and change
// the table.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick campaign")
	}
	dir := t.TempDir()
	if err := run(tctx, "all", "quick", 1, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 24 { // 10 jobs, fig10 and fig12 with two panels
		t.Fatalf("%d result files, want 24", len(entries))
	}
	list, err := os.ReadFile(filepath.Join("testdata", "quick_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(list)), "\n")
	for _, line := range lines {
		want, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: digest %s, recorded %s", name, got, want)
		}
	}
	if len(lines) != 20 {
		t.Fatalf("%d recorded digests, want the 20 files besides fig10's", len(lines))
	}
}

// tctx is the shared background context of the package tests.
var tctx = context.Background()
