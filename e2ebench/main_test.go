package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0},
		{19, 0},
		{20, 0.5},
		{40, 0.75},
		{100, 0.9},
		{199, 0.9},
		{200, 0.95},
		{999, 0.95},
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
	} {
		if got := tailLevel(tc.n); got != tc.want {
			t.Errorf("tailLevel(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if q := tailLevel(tc.n); q > 0 && beyond(tc.n, q) < minBeyond {
			t.Errorf("tailLevel(%d) = %g leaves %d samples beyond", tc.n, q, beyond(tc.n, q))
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 100}, {0.95, 190}, {0.99, 198}, {1, 200}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..200, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := beyond(200, 0.95); got != 10 {
		t.Errorf("beyond(200, 0.95) = %d, want 10", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestWindowedPercentileIsAMedianOfWindows(t *testing.T) {
	var xs []float64
	for w := 0; w < 3; w++ {
		for i := 1; i <= 200; i++ {
			x := float64(i)
			if w == 1 && i > 180 {
				x *= 100 // a stall inflates one window's tail
			}
			xs = append(xs, x)
		}
	}
	p95, windows := windowedPercentile(xs, 0.95)
	if windows != 3 || p95 != 190 {
		t.Errorf("got p95 %g over %d windows, want 190 over 3", p95, windows)
	}
	if p95, windows := windowedPercentile(xs[:150], 0.95); windows != 1 || p95 != 143 {
		t.Errorf("150 samples: got p95 %g over %d windows, want 143 over 1", p95, windows)
	}
}

// A stalled op delays the ops queued behind the outstanding cap; their
// latency must include that wait, counted from when each was due.
func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	const service = 30 * time.Millisecond
	at := []time.Duration{0, 0, 0}
	outs, _ := openLoop(context.Background(), at, 1, func(context.Context, int) error {
		time.Sleep(service)
		return nil
	})
	for i, o := range outs {
		if o.status != statusOK {
			t.Fatalf("op %d: status %v", i, o.status)
		}
		if o.latency != o.lateness+o.service {
			t.Errorf("op %d: latency %v != lateness %v + service %v", i, o.latency, o.lateness, o.service)
		}
		if least := time.Duration(i+1) * service; o.latency < least {
			t.Errorf("op %d: latency %v, want at least %v (queued behind %d ops)", i, o.latency, least, i)
		}
		if least := time.Duration(i) * service; o.lateness < least {
			t.Errorf("op %d: lateness %v, want at least %v", i, o.lateness, least)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q is not 1-64 characters of [A-Za-z0-9_.-]", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
}

// The benchmark manifest at the repository root must list exactly the
// metrics and workloads this command reports.
func TestManifestMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(cfg.Workloads) {
		t.Fatalf("manifest lists %d workloads, workloads.json %d", len(m.Workloads), len(cfg.Workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != cfg.Workloads[i].Name {
			t.Errorf("workload %d: manifest %q, workloads.json %q", i, w.Name, cfg.Workloads[i].Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: manifest %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

func TestWrongAnswerFailsTheOp(t *testing.T) {
	tpl := &template{path: "/v1/schedule", want: &answer{makespan: 10, peaks: []int64{3, 4}}}
	if err := checkResponse(tpl, strings.NewReader(`{"makespan": 10, "peaks": [3, 4]}`)); err != nil {
		t.Fatalf("matching answer rejected: %v", err)
	}
	err := checkResponse(tpl, strings.NewReader(`{"makespan": 10, "peaks": [3, 5]}`))
	if !errors.Is(err, errWrong) || classify(err) != statusWrong {
		t.Fatalf("differing peaks: err %v, class %v; want a wrong answer", err, classify(err))
	}
	sweepTpl := &template{path: "/v1/sweep", want: &answer{points: []pointAnswer{{feasible: true, makespan: 5, peaks: []int64{1, 2}}}}}
	ok := `{"type":"point","index":0,"feasible":true,"makespan":5,"peaks":[1,2]}` + "\n" + `{"type":"summary","points":1}` + "\n"
	if err := checkResponse(sweepTpl, strings.NewReader(ok)); err != nil {
		t.Fatalf("matching sweep rejected: %v", err)
	}
	bad := `{"type":"point","index":0,"feasible":true,"makespan":6,"peaks":[1,2]}` + "\n" + `{"type":"summary","points":1}` + "\n"
	if err := checkResponse(sweepTpl, strings.NewReader(bad)); classify(err) != statusWrong {
		t.Fatalf("differing sweep point: err %v; want a wrong answer", err)
	}
}

// Every workload runs end to end at a tiny size, untraced and traced, and
// reports exactly its metrics on a correct result line.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a loopback cluster per run")
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range cfg.Workloads {
		for _, traced := range []bool{false, true} {
			name := wl.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := options{workload: wl.Name, seed: 3, seconds: 1, trace: traced, setups: 2,
					outDir: t.TempDir(), graphs: 2, tasks: 200, closedOps: 4}
				var out bytes.Buffer
				code, err := run(context.Background(), o, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("code %d, result %+v\n%s", code, res, out.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
			})
		}
	}
}
