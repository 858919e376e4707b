// Command memsched schedules a task graph (JSON) on a dual-memory platform
// with one of the paper's heuristics and reports the schedule, its makespan
// and its memory peaks.
//
// Usage:
//
//	memsched -graph dag.json -algo memheft -pblue 2 -pred 2 -mblue 50 -mred 50
//	memsched -example -algo memminmin -mblue 4 -mred 4
//
// With -example the built-in four-task DAG of the paper's Figure 2 is used
// instead of a file. -timeout interrupts long runs; -timeline prints the
// event table; -dot writes the graph in Graphviz syntax to the given path;
// -json writes the schedule as JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	memsched "repro"
	"repro/internal/multi"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "path to a JSON task graph")
		example   = flag.Bool("example", false, "use the paper's four-task example DAG")
		algo      = flag.String("algo", "memheft", "heuristic: "+strings.Join(memsched.Schedulers(), ", "))
		pBlue     = flag.Int("pblue", 1, "number of blue (CPU-side) processors")
		pRed      = flag.Int("pred", 1, "number of red (accelerator-side) processors")
		mBlue     = flag.Int64("mblue", -1, "blue memory capacity (-1 = unlimited)")
		mRed      = flag.Int64("mred", -1, "red memory capacity (-1 = unlimited)")
		seed      = flag.Int64("seed", 1, "tie-breaking seed")
		timeout   = flag.Duration("timeout", 0, "interrupt the run after this duration (0 = none)")
		timeline  = flag.Bool("timeline", false, "print the full event timeline")
		dotPath   = flag.String("dot", "", "write the graph in Graphviz format to this path")
		jsonOut   = flag.Bool("json", false, "print the schedule as JSON")
		svgPath   = flag.String("svg", "", "write a Gantt chart of the schedule (SVG) to this path")
	)
	flag.Parse()
	if err := run(os.Stdout, *graphPath, *example, *algo, *pBlue, *pRed, *mBlue, *mRed, *seed, *timeout, *timeline, *dotPath, *jsonOut, *svgPath); err != nil {
		fmt.Fprintln(os.Stderr, "memsched:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, graphPath string, example bool, algo string, pBlue, pRed int, mBlue, mRed, seed int64, timeout time.Duration, timeline bool, dotPath string, jsonOut bool, svgPath string) error {
	var g *memsched.Graph
	switch {
	case example:
		g = memsched.PaperExample()
	case graphPath != "":
		f, err := os.Open(graphPath)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = memsched.ReadGraph(f)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -graph FILE or -example")
	}

	if dotPath != "" {
		if err := os.WriteFile(dotPath, []byte(g.DOT("graph")), 0o644); err != nil {
			return err
		}
	}

	if mBlue < 0 {
		mBlue = memsched.Unlimited
	}
	if mRed < 0 {
		mRed = memsched.Unlimited
	}
	p := memsched.NewDualPlatform(int(pBlue), int(pRed), mBlue, mRed)

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	sess, err := memsched.NewSession(g)
	if err != nil {
		return err
	}
	res, err := sess.Schedule(ctx, p, memsched.WithScheduler(algo), memsched.WithSeed(seed))
	if err != nil {
		return err
	}
	if err := res.Validate(); err != nil {
		return fmt.Errorf("internal error: produced schedule fails validation: %w", err)
	}
	s := res.Pools

	peaks := res.PeakResidency()
	fmt.Fprintf(w, "algorithm : %s\n", res.Stats.Scheduler)
	fmt.Fprintf(w, "platform  : %s\n", p)
	fmt.Fprintf(w, "tasks     : %d (%d edges)\n", g.NumTasks(), g.NumEdges())
	fmt.Fprintf(w, "makespan  : %g\n", res.Makespan())
	fmt.Fprintf(w, "peaks     : blue=%d red=%d\n", peaks[0], peaks[1])
	fmt.Fprintf(w, "run       : %v (candidate-cache hit rate %.0f%%)\n", res.Stats.WallTime.Round(time.Microsecond), 100*res.Stats.CacheHitRate())

	if timeline {
		fmt.Fprintln(w)
		fmt.Fprint(w, s.Render())
	}
	if svgPath != "" {
		if err := os.WriteFile(svgPath, []byte(s.SVG()), 0o644); err != nil {
			return err
		}
	}
	if jsonOut {
		out := struct {
			Makespan  float64           `json:"makespan"`
			BluePeak  int64             `json:"bluePeak"`
			RedPeak   int64             `json:"redPeak"`
			Tasks     []multi.Placement `json:"tasks"`
			CommStart []float64         `json:"commStart"`
		}{res.Makespan(), peaks[0], peaks[1], s.Tasks, sanitize(s.CommStart)}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	return nil
}

// sanitize replaces the NaN markers of intra-memory edges by -1 so the
// output is valid JSON.
func sanitize(in []float64) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		if math.IsNaN(v) {
			out[i] = -1
		} else {
			out[i] = v
		}
	}
	return out
}
