// Command benchjson runs the scheduler throughput benchmarks in-process via
// testing.Benchmark and emits a machine-readable JSON report, so the
// performance trajectory of the hot path can be tracked across PRs (the
// repo convention is one BENCH_<pr>.json per perf PR at the repository
// root). The cases mirror the scheduler-throughput benchmarks of
// bench_test.go — the dual-memory suite (plain sessions on 2-pool
// platforms) runs through the public Session API so the numbers include the
// session indirection real callers pay, and the k-pool suite (n = 300/1000/3000 at k = 3/4/8, plus the retained eager
// oracle at n = 1000, k = 4) tracks the generalised engine against its
// reference. RouterInline1000 and ReplicaInline1000 time one warm inline
// POST /v1/schedule (a 1000-task graph re-sent in the body) through a
// cluster router over stub replicas and through one replica;
// ReplicaInlineMiss1000 re-sends the graph in two alternating encodings,
// so every request misses the replica's digest memo.
//
// Usage:
//
//	go run ./cmd/benchjson -o BENCH_<pr>.json
//
// The default output is BENCH.json; pass -o to follow the per-PR naming
// convention. -repeat N runs every case N times and records the fastest
// run, which suppresses one-sided scheduler/GC noise on shared runners.
//
// Regression gate. With -compare OLD.json the command exits nonzero when
// any benchmark tracked by both reports got slower than the threshold
// ratio:
//
//	go run ./cmd/benchjson -o fresh.json -compare BENCH_3.json -threshold 1.25
//
// CI runs exactly that against the committed baseline (with a generous
// threshold to absorb runner noise) and uploads the fresh JSON as an
// artifact. Pass -in FRESH.json to gate an existing report instead of
// running the suite.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// Report is the emitted JSON document.
type Report struct {
	Suite      string            `json:"suite"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Result is the recorded outcome of one case.
type Result struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	Iterations  int   `json:"iterations"`
}

func main() {
	out := flag.String("o", "BENCH.json", "output file")
	in := flag.String("in", "", "gate an existing report instead of running the suite")
	repeat := flag.Int("repeat", 1, "runs per case; the fastest is recorded")
	compare := flag.String("compare", "", "baseline report to gate against")
	threshold := flag.Float64("threshold", 1.25, "maximum allowed ns/op ratio vs the baseline")
	flag.Parse()

	if *in != "" && *compare == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -in only gates an existing report and requires -compare")
		os.Exit(2)
	}

	var (
		rep *Report
		err error
	)
	if *in != "" {
		rep, err = readReport(*in)
	} else {
		rep, err = runSuite(defaultCases(), *repeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *in == "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *compare != "" {
		base, err := readReport(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		regressions, notes := compareReports(base, rep, *threshold)
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, n)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "REGRESSION:", r)
			}
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed past %.2fx vs %s\n",
				len(regressions), *threshold, *compare)
			os.Exit(1)
		}
		fmt.Printf("benchmark gate passed: no regression past %.2fx vs %s\n", *threshold, *compare)
	}
}

// readReport loads and sanity-checks a report file.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchjson: %s carries no benchmarks", path)
	}
	return &rep, nil
}

// compareReports gates fresh against base: every benchmark present in both
// reports must not exceed threshold times the baseline ns/op. Benchmarks
// that exist on only one side are reported as notes, never as failures —
// the tracked suite is allowed to grow and shrink across PRs. Output is
// sorted by benchmark name so gate logs are stable across runs.
func compareReports(base, fresh *Report, threshold float64) (regressions, notes []string) {
	for _, name := range sortedNames(base.Benchmarks) {
		old := base.Benchmarks[name]
		cur, ok := fresh.Benchmarks[name]
		if !ok {
			notes = append(notes, fmt.Sprintf("note: %s in baseline but not in fresh report", name))
			continue
		}
		if old.NsPerOp <= 0 {
			notes = append(notes, fmt.Sprintf("note: %s has non-positive baseline ns/op %d", name, old.NsPerOp))
			continue
		}
		ratio := float64(cur.NsPerOp) / float64(old.NsPerOp)
		if ratio > threshold {
			regressions = append(regressions, fmt.Sprintf("%s: %d -> %d ns/op (%.2fx > %.2fx)",
				name, old.NsPerOp, cur.NsPerOp, ratio, threshold))
		}
	}
	for _, name := range sortedNames(fresh.Benchmarks) {
		if _, ok := base.Benchmarks[name]; !ok {
			notes = append(notes, fmt.Sprintf("note: %s is new (no baseline)", name))
		}
	}
	return regressions, notes
}

// sortedNames returns the benchmark names in sorted order.
func sortedNames(m map[string]Result) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
