package exact

import (
	"context"

	"repro/internal/dag"
	"repro/internal/multi"
	"repro/internal/platform"
)

// tctx is the shared background context of the package tests.
var tctx = context.Background()

// inst and pools lift a dual-memory graph and platform onto the 2-pool
// instance and platform the search runs on (pool 0 blue, pool 1 red).
func inst(g *dag.Graph) *multi.Instance { return multi.FromDual(g) }

func pools(p platform.Platform) multi.Platform { return multi.FromDualPlatform(p) }
