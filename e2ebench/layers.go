package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	memsched "repro"
	"repro/cluster/ring"
	"repro/serve"
	"repro/sweep"
)

// directCalls is how many requests' worth of direct layer calls the
// traced run makes (at least one per distinct request), so every median
// rests on enough calls.
const directCalls = 32

// directLayers times the calls into each layer's public functions on the
// workload's own inputs, outside the service: graph decode and hash
// (dag), the router's key extraction (cluster), session construction,
// scheduling and the peak-residency finalize (memsched), the engine
// phases from Stats.Phases, and the sweep engine. Every result is checked
// against the reference like a served one.
func directLayers(ctx context.Context, wl workloadDef, cat *catalog, ref *reference, tpl [][]*template) (map[string]float64, error) {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var flat []*template
	for _, row := range tpl {
		flat = append(flat, row...)
	}
	calls := directCalls
	if calls < len(flat) {
		calls = len(flat)
	}
	var replayed, tasks int
	for i := 0; i < calls; i++ {
		t := flat[i%len(flat)]
		raw := cat.raws[t.graph]

		t0 := time.Now()
		g := memsched.NewGraph()
		if err := json.Unmarshal(raw, g); err != nil {
			return nil, err
		}
		add("dag.decode_us", micros(time.Since(t0)))

		t0 = time.Now()
		memsched.GraphHash(g)
		add("dag.hash_us", micros(time.Since(t0)))

		t0 = time.Now()
		if _, _, err := serve.RoutingKey(t.body); err != nil {
			return nil, err
		}
		add("router.routing_key_us", micros(time.Since(t0)))

		var opts []memsched.SessionOption
		if wl.Classes[t.class].Pools == 4 {
			opts = append(opts, memsched.WithPoolTimes(cat.times[t.graph]))
		}
		t0 = time.Now()
		fresh, err := memsched.NewSession(g, opts...)
		if err != nil {
			return nil, err
		}
		fresh.GraphHash()
		add("session.new_us", micros(time.Since(t0)))

		sess, p := ref.sessions[t.graph][t.class], ref.platforms[t.graph][t.class]
		if wl.Request == reqSweepID {
			res, err := sweep.Run(memsched.WithPhaseTrace(ctx), sess, wl.sweepSpec(p, false))
			if err != nil {
				return nil, err
			}
			if err := samePoints(res, t.want); err != nil {
				return nil, err
			}
			add("sweep.point_us", micros(res.Summary.WallTime)/float64(len(res.Points)))
			truncated := 0
			for _, pr := range res.Points {
				replayed += pr.ReplayedPlacements
				if pr.ReplayTruncated {
					truncated++
				}
				addPhases(add, pr.Stats.Phases)
			}
			tasks += len(res.Points) * g.NumTasks()
			add("sweep.truncated_points", float64(truncated))
		}
		// Sweep workloads time one schedule on the sweep's base platform.
		t0 = time.Now()
		res, err := sess.Schedule(memsched.WithPhaseTrace(ctx), p)
		if err != nil {
			return nil, err
		}
		add("session.schedule_us", micros(time.Since(t0)))
		if wl.Request != reqSweepID {
			addPhases(add, res.Stats.Phases)
		}
		add("session.candidate_hit_ratio", res.Stats.CacheHitRate())
		t0 = time.Now()
		peaks := res.PeakResidency()
		add("session.finalize_us", micros(time.Since(t0)))
		if wl.Request != reqSweepID && (!sameFloat(res.Makespan(), t.want.makespan) || !slices.Equal(peaks, t.want.peaks)) {
			return nil, fmt.Errorf("%w: direct Session.Schedule of graph %d class %d", errWrong, t.graph, t.class)
		}
	}
	out := map[string]float64{}
	for name, xs := range samples {
		out[name] = median(xs)
	}
	if tasks > 0 {
		out["sweep.replayed_share"] = float64(replayed) / float64(tasks)
	}
	return out, nil
}

// addPhases records one call's engine phase durations, summed per phase.
func addPhases(add func(string, float64), phases []memsched.Phase) {
	sum := map[string]time.Duration{}
	for _, ph := range phases {
		sum[ph.Name] += ph.Duration
	}
	for _, name := range []string{"rank", "statics", "replay", "placement"} {
		add("engine."+name+"_us", micros(sum[name]))
	}
}

// samePoints checks a direct sweep against the reference points.
func samePoints(res *sweep.Result, want *answer) error {
	if len(res.Points) != len(want.points) {
		return fmt.Errorf("%w: direct sweep has %d points, reference %d", errWrong, len(res.Points), len(want.points))
	}
	for i, pr := range res.Points {
		w := want.points[i]
		if pr.Feasible != w.feasible || !sameFloat(pr.Makespan, w.makespan) || !slices.Equal(pr.Peaks, w.peaks) {
			return fmt.Errorf("%w: direct sweep point %d", errWrong, i)
		}
	}
	return nil
}

// spanLayers turns the traced ops' spans into per-layer medians: each
// replica phase's duration, the handler time, the router hop (client
// latency minus handler time), ring affinity, and the share of client
// latency the server-side spans attribute.
func spanLayers(ops map[string]*opSpans, keys map[string]string, replicaIDs []string, routed bool) (map[string]float64, error) {
	samples := map[string][]float64{}
	var owner *ring.Ring
	if routed {
		var err error
		if owner, err = ring.New(replicaIDs, ring.WithVirtualNodes(ring.DefaultVirtualNodes)); err != nil {
			return nil, err
		}
	}
	var attributed, client time.Duration
	affine, routedOps := 0, 0
	for id, o := range ops {
		if o.handler == nil {
			continue
		}
		samples["serve.handler_us"] = append(samples["serve.handler_us"], micros(o.handler.dur()))
		phase := map[string]time.Duration{}
		for _, p := range o.phases {
			if topLevel(p) {
				phase[p.Name] += p.dur()
			}
		}
		for name, d := range phase {
			samples[name+"_us"] = append(samples[name+"_us"], micros(d))
		}
		var self time.Duration
		for _, d := range o.selfTimes() {
			self += d
		}
		attributed += self
		client += o.client.dur()
		if routed {
			samples["router.hop_us"] = append(samples["router.hop_us"], micros(o.client.dur()-o.handler.dur()))
			routedOps++
			if owner.Owners(keys[id], 1)[0] == o.handler.Where {
				affine++
			}
		}
	}
	out := map[string]float64{}
	for name, xs := range samples {
		out[name] = median(xs)
	}
	if client > 0 {
		out["trace.attributed_share"] = float64(attributed) / float64(client)
	}
	if routedOps > 0 {
		out["router.affinity_share"] = float64(affine) / float64(routedOps)
	}
	return out, nil
}
