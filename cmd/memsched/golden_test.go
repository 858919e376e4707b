package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	memsched "repro"
)

var update = flag.Bool("update", false, "rewrite the golden outputs in testdata")

// TestGoldenOutputs pins the report, the -timeline table, the -json document
// and the -svg chart of the paper's example and of a tiled LU graph. The
// "run" line prints wall time and is left out of the comparison.
func TestGoldenOutputs(t *testing.T) {
	lu, err := memsched.LUGraph(memsched.DefaultLinalgConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lu.Write(&buf); err != nil {
		t.Fatal(err)
	}
	luPath := filepath.Join(t.TempDir(), "lu4.json")
	if err := os.WriteFile(luPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		graph       string
		example     bool
		algo        string
		pBlue, pRed int
		mBlue, mRed int64
	}{
		{name: "example-memheft", example: true, algo: "memheft", pBlue: 1, pRed: 1, mBlue: 4, mRed: 4},
		{name: "example-memminmin", example: true, algo: "memminmin", pBlue: 1, pRed: 1, mBlue: 5, mRed: 5},
		{name: "lu4-memheft", graph: luPath, algo: "memheft", pBlue: 3, pRed: 2, mBlue: 10, mRed: 10},
		{name: "lu4-heft", graph: luPath, algo: "heft", pBlue: 3, pRed: 2, mBlue: -1, mRed: -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			svg := filepath.Join(t.TempDir(), "gantt.svg")
			var out bytes.Buffer
			if err := run(&out, c.graph, c.example, c.algo, c.pBlue, c.pRed, c.mBlue, c.mRed, 1, 0, true, "", true, svg); err != nil {
				t.Fatal(err)
			}
			var kept []string
			for _, line := range strings.SplitAfter(out.String(), "\n") {
				if !strings.HasPrefix(line, "run ") {
					kept = append(kept, line)
				}
			}
			chart, err := os.ReadFile(svg)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", c.name+".txt"), []byte(strings.Join(kept, "")))
			compareGolden(t, filepath.Join("testdata", c.name+".svg"), chart)
		})
	}
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden (%d bytes, want %d)", path, len(got), len(want))
	}
}
