// Quickstart: build a small workflow by hand, open a scheduling session for
// it, run every registered heuristic under a tight memory budget, and
// compare against the exact optimum — the paper's Figure 2 example, end to
// end through the Session API.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	memsched "repro"
)

func main() {
	// The paper's toy DAG: four tasks, two of which strongly prefer the
	// accelerator (red) side.
	g := memsched.PaperExample()

	// One session per graph: it owns the priority-list and statics memos,
	// so every Schedule call below reuses them.
	sess, err := memsched.NewSession(g)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// One CPU-side processor, one accelerator, and equal memory bounds
	// that get progressively tighter.
	for _, bound := range []int64{6, 5, 4, 3} {
		p := memsched.NewDualPlatform(1, 1, bound, bound)
		fmt.Printf("== memory bound %d on each side ==\n", bound)

		for _, name := range []string{"heft", "minmin", "memheft", "memminmin"} {
			res, err := sess.Schedule(ctx, p, memsched.WithScheduler(name), memsched.WithSeed(1))
			if err != nil {
				if errors.Is(err, memsched.ErrMemoryBound) {
					fmt.Printf("  %-9s  does not fit\n", name)
					continue
				}
				log.Fatal(err)
			}
			peaks := res.PeakResidency()
			fits := "fits"
			if peaks[0] > bound || peaks[1] > bound {
				// The oblivious heuristics ignore the bound;
				// report honestly.
				fits = fmt.Sprintf("EXCEEDS bound (peaks %d/%d)", peaks[0], peaks[1])
			}
			fmt.Printf("  %-9s  makespan %-4g %s\n", name, res.Makespan(), fits)
		}

		// The exact reference (tiny graph, instant).
		opt, err := sess.Optimal(ctx, p)
		switch {
		case err != nil:
			log.Fatal(err)
		case opt.Pools == nil:
			fmt.Println("  optimal    infeasible for every list schedule")
		default:
			fmt.Printf("  optimal    makespan %-4g (proven=%v, %d nodes)\n",
				opt.Makespan(), opt.Stats.Proven, opt.Stats.Nodes)
		}
		fmt.Println()
	}
}
