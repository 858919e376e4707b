package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/daggen"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{Name: "x", XLabel: "alpha", Columns: []string{"a", "b"}}
	tab.AddRow(0.5, 1.25, math.NaN())
	tab.AddRow(1.0, 2, 3)
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "alpha,a,b\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "0.5,1.25,\n") {
		t.Fatalf("csv NaN not empty: %q", csv)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| alpha | a | b |") || !strings.Contains(md, "–") {
		t.Fatalf("markdown wrong:\n%s", md)
	}
}

func TestTableAddRowPanicsOnArityMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tab := &Table{Columns: []string{"a"}}
	tab.AddRow(1, 2, 3)
}

func TestTableColumn(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b"}}
	if tab.Column("b") != 1 || tab.Column("zz") != -1 {
		t.Fatal("Column lookup wrong")
	}
}

func TestHEFTReference(t *testing.T) {
	g := dag.PaperExample()
	ms, peak, err := HEFTReference(tctx, g, RandomPlatform(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 || peak <= 0 {
		t.Fatalf("ms=%g peak=%d", ms, peak)
	}
}

func TestMemoryGrid(t *testing.T) {
	grid := MemoryGrid(100, 10)
	if len(grid) != 10 || grid[0] != 10 || grid[9] != 100 {
		t.Fatalf("grid = %v", grid)
	}
	// Dedup for tiny maxima.
	small := MemoryGrid(3, 10)
	for i := 1; i < len(small); i++ {
		if small[i] <= small[i-1] {
			t.Fatalf("grid not strictly increasing: %v", small)
		}
	}
}

func TestDefaultAlphas(t *testing.T) {
	a := DefaultAlphas()
	if len(a) != 20 || a[0] != 0.05 || a[len(a)-1] != 1.0 {
		t.Fatalf("alphas = %v", a)
	}
}

func TestTable1Shape(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 6 {
		t.Fatalf("Table1 has %d rows", len(tab.Rows))
	}
	// Row 0 is getrf: cpu 450.
	if tab.Rows[0].Values[0] != 450 {
		t.Fatalf("getrf cpu = %g", tab.Rows[0].Values[0])
	}
	if len(Table1Kernels()) != 6 {
		t.Fatal("kernel list wrong")
	}
}

func TestNormalizedSweepSmall(t *testing.T) {
	graphs, err := daggen.Set(daggen.SmallParams(), 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NormalizedSweep(tctx, NormalizedSweepConfig{
		Graphs:   graphs,
		Platform: RandomPlatform(),
		Alphas:   []float64{0.3, 1.0},
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Makespan.Rows) != 2 || len(res.Success.Rows) != 2 {
		t.Fatal("row counts wrong")
	}
	// At alpha = 1 every DAG must schedule (bounds at the HEFT peak are
	// sufficient for these instances) and the normalised makespan sits
	// near 1.
	last := res.Success.Rows[1]
	for i, v := range last.Values {
		if v < 0.99 {
			t.Fatalf("success[%s] at alpha=1 is %g", res.Success.Columns[i], v)
		}
	}
	msLast := res.Makespan.Rows[1]
	for i, v := range msLast.Values {
		if math.IsNaN(v) || v < 0.5 || v > 2 {
			t.Fatalf("normalised makespan[%s] at alpha=1 is %g", res.Makespan.Columns[i], v)
		}
	}
	// Success rates must not increase when memory shrinks.
	for i := range res.Success.Columns {
		if res.Success.Rows[0].Values[i] > res.Success.Rows[1].Values[i]+1e-9 {
			t.Fatalf("success rate increased when memory shrank (col %d)", i)
		}
	}
}

func TestNormalizedSweepWithOptimal(t *testing.T) {
	graphs, err := daggen.Set(daggen.SmallParams(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NormalizedSweep(tctx, NormalizedSweepConfig{
		Graphs:      graphs,
		Platform:    RandomPlatform(),
		Alphas:      []float64{0.8},
		Seed:        5,
		WithOptimal: true,
		OptNodes:    20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	oi := res.Makespan.Column("Optimal")
	if oi < 0 {
		t.Fatal("Optimal column missing")
	}
	// Optimal success rate >= heuristic success rates; optimal makespan
	// <= each heuristic's (averages over the same successful set need
	// not be comparable, but with both heuristics succeeding on these
	// instances the sets coincide).
	for i := range res.Success.Columns {
		if res.Success.Rows[0].Values[oi] < res.Success.Rows[0].Values[i]-1e-9 {
			t.Fatal("optimal success rate below a heuristic's")
		}
	}
	mh := res.Makespan.Rows[0].Values[res.Makespan.Column("MemHEFT")]
	op := res.Makespan.Rows[0].Values[oi]
	if !math.IsNaN(mh) && !math.IsNaN(op) && op > mh+1e-9 {
		t.Fatalf("optimal %g worse than MemHEFT %g", op, mh)
	}
}

func TestAbsoluteSweepFig11Shape(t *testing.T) {
	g, err := daggen.Generate(daggen.SmallParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	p := RandomPlatform()
	_, peak, err := HEFTReference(tctx, g, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := AbsoluteSweep(tctx, AbsoluteSweepConfig{
		Graph:      g,
		Platform:   p,
		Memories:   MemoryGrid(peak+peak/10, 8),
		Seed:       3,
		LowerBound: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	li := tab.Column("lowerbound")
	hi := tab.Column("heft")
	mi := tab.Column("memheft")
	if li < 0 || hi < 0 || mi < 0 {
		t.Fatal("columns missing")
	}
	for _, r := range tab.Rows {
		lb := r.Values[li]
		for ci, v := range r.Values {
			if ci == li || math.IsNaN(v) {
				continue
			}
			if v < lb-1e-9 {
				t.Fatalf("%s below lower bound at mem %g: %g < %g", tab.Columns[ci], r.X, v, lb)
			}
		}
	}
	// The largest bound exceeds HEFT's peak: heft value present there.
	lastRow := tab.Rows[len(tab.Rows)-1]
	if math.IsNaN(lastRow.Values[hi]) {
		t.Fatal("HEFT missing at ample memory")
	}
	// The memory-aware curve must be present wherever HEFT is.
	if math.IsNaN(lastRow.Values[mi]) {
		t.Fatal("MemHEFT missing at ample memory")
	}
}

// TestAbsoluteSweepMixedCaseNames: algorithm names were case-insensitive
// through core.ByName before the sweep-engine rebuild and must stay so.
func TestAbsoluteSweepMixedCaseNames(t *testing.T) {
	g, err := daggen.Generate(daggen.SmallParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := AbsoluteSweep(tctx, AbsoluteSweepConfig{
		Graph:      g,
		Platform:   RandomPlatform(),
		Memories:   MemoryGrid(500, 3),
		Seed:       3,
		Algorithms: []string{"MemHEFT", " heft "},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Column("memheft") < 0 || tab.Column("heft") < 0 {
		t.Fatalf("normalized columns missing: %v", tab.Columns)
	}
}

func TestQuickFiguresRun(t *testing.T) {
	if _, err := Fig11(tctx, Quick, 7); err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	tab, err := Fig14(tctx, Quick, 7)
	if err != nil {
		t.Fatalf("Fig14: %v", err)
	}
	if tab.Column("memheft") < 0 || tab.Column("memminmin") < 0 {
		t.Fatal("Fig14 columns wrong")
	}
	if _, err := Fig15(tctx, Quick, 7); err != nil {
		t.Fatalf("Fig15: %v", err)
	}
}

func TestQuickFig12Runs(t *testing.T) {
	res, err := Fig12(tctx, Quick, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan.Column("Optimal") >= 0 {
		t.Fatal("Fig12 must not include the optimal curve")
	}
	if len(res.Makespan.Rows) != 5 {
		t.Fatalf("Fig12 quick rows = %d", len(res.Makespan.Rows))
	}
}

func TestQuickFig10Runs(t *testing.T) {
	res, err := Fig10(tctx, Quick, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan.Column("Optimal") < 0 {
		t.Fatal("Fig10 must include the optimal curve")
	}
	// At alpha=1 everything schedules.
	last := res.Success.Rows[len(res.Success.Rows)-1]
	for i, v := range last.Values {
		if v < 0.9 {
			t.Fatalf("success[%s] at alpha=1 = %g", res.Success.Columns[i], v)
		}
	}
}

func TestMiragePlatformShape(t *testing.T) {
	p := MiragePlatform()
	if p.NumPools() != 2 || p.Pools[0].Procs != 12 || p.Pools[1].Procs != 3 {
		t.Fatalf("mirage = %+v", p)
	}
	if RandomPlatform().TotalProcs() != 4 {
		t.Fatal("random platform wrong")
	}
}
