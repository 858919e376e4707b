package exact

import (
	"context"

	"repro/internal/dag"
	"repro/internal/multi"
)

// tctx is the shared background context of the package tests.
var tctx = context.Background()

// inst lifts a dual-memory graph onto the 2-pool instance the search runs
// on (pool 0 blue, pool 1 red).
func inst(g *dag.Graph) *multi.Instance { return multi.FromDual(g) }
