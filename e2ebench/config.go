package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"repro/workload"
)

// workloadsJSON holds every workload's fixed parameters: catalog, platform
// classes, open-loop rate and SLO, closed-loop op count, and the held-out
// seed for confirming later claims. Rates are fixed here, never derived at
// run time, so two commits are always driven at the same load.
//
//go:embed workloads.json
var workloadsJSON []byte

// Request shapes a workload can send.
const (
	reqScheduleInline = "schedule-inline" // POST /v1/schedule with the graph inline
	reqScheduleID     = "schedule-id"     // POST /v1/schedule by registered graph_id
	reqSweepID        = "sweep-id"        // POST /v1/sweep by registered graph_id, NDJSON stream
)

// Targets a workload can send to.
const (
	targetRouter  = "router"  // the cluster router in front of every replica
	targetReplica = "replica" // the first replica directly, no router hop
)

type benchConfig struct {
	HeldoutSeed int64         `json:"heldout_seed"`
	Workloads   []workloadDef `json:"workloads"`
}

// workloadDef is one workload of workloads.json.
type workloadDef struct {
	Name      string           `json:"name"`
	Why       string           `json:"why"`
	Request   string           `json:"request"`
	Target    string           `json:"target"`
	Catalog   workload.Catalog `json:"catalog"`
	Zipf      float64          `json:"zipf"`
	Rate      float64          `json:"rate"`
	SLOMillis float64          `json:"slo_ms"`
	ClosedOps int              `json:"closed_ops"`
	Classes   []platformClass  `json:"classes"`
	Sweep     *sweepDef        `json:"sweep,omitempty"`
}

// platformClass is one platform family of a workload: a workload class of
// the generated trace whose requests all run on this platform shape.
// Alpha > 0 bounds every pool at Alpha times the graph's unbounded peak;
// Alpha == 0 leaves the pools unbounded. A 4-pool class runs on graphs
// registered with a pool-time matrix.
type platformClass struct {
	Name  string  `json:"name"`
	Share float64 `json:"share"`
	Pools int     `json:"pools"`
	Alpha float64 `json:"alpha"`
}

type sweepDef struct {
	Alphas     []float64 `json:"alphas"`
	Schedulers []string  `json:"schedulers"`
}

func loadConfig() (*benchConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(workloadsJSON))
	dec.DisallowUnknownFields()
	var cfg benchConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for _, wl := range cfg.Workloads {
		if err := wl.validate(); err != nil {
			return nil, fmt.Errorf("workloads.json: workload %q: %w", wl.Name, err)
		}
	}
	return &cfg, nil
}

func (c *benchConfig) lookup(name string) (workloadDef, error) {
	for _, wl := range c.Workloads {
		if wl.Name == name {
			return wl, nil
		}
	}
	names := make([]string, len(c.Workloads))
	for i, wl := range c.Workloads {
		names[i] = wl.Name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

func (wl workloadDef) validate() error {
	switch wl.Request {
	case reqScheduleInline, reqScheduleID:
	case reqSweepID:
		if wl.Sweep == nil || len(wl.Sweep.Alphas) == 0 || len(wl.Sweep.Schedulers) == 0 {
			return fmt.Errorf("a sweep workload needs sweep.alphas and sweep.schedulers")
		}
	default:
		return fmt.Errorf("unknown request shape %q", wl.Request)
	}
	if wl.Target != targetRouter && wl.Target != targetReplica {
		return fmt.Errorf("unknown target %q", wl.Target)
	}
	if wl.Rate <= 0 || wl.SLOMillis <= 0 || wl.ClosedOps < 1 || len(wl.Classes) == 0 {
		return fmt.Errorf("rate, slo_ms, closed_ops and classes must be positive")
	}
	for _, c := range wl.Classes {
		if c.Pools != 2 && c.Pools != 4 {
			return fmt.Errorf("class %q: pools must be 2 or 4", c.Name)
		}
		if c.Pools == 4 && wl.Request == reqScheduleInline {
			return fmt.Errorf("class %q: 4-pool classes need registered graphs", c.Name)
		}
		if c.Share <= 0 || c.Alpha < 0 {
			return fmt.Errorf("class %q: share must be positive and alpha non-negative", c.Name)
		}
	}
	return nil
}

// arrivalShape is the Gamma shape of every class's inter-arrival times:
// independent arrivals, but less bursty than Poisson (coefficient of
// variation 1/2), so latency tracks service time more than the luck of
// the seed's bursts.
const arrivalShape = 4

// spec is the workload package's open-loop description of this workload
// over a window of the given length: one trace class per platform class,
// each a Gamma arrival stream carrying its share of the workload's rate,
// all drawing graphs from the catalog with the workload's Zipf skew.
func (wl workloadDef) spec(window time.Duration) *workload.Spec {
	mix := workload.Mix{Schedule: 1}
	alphas := 0
	if wl.Request == reqSweepID {
		mix = workload.Mix{Sweep: 1}
		alphas = len(wl.Sweep.Alphas)
	}
	classes := make([]workload.Class, len(wl.Classes))
	for i, c := range wl.Classes {
		classes[i] = workload.Class{
			Name:        c.Name,
			Arrival:     workload.Arrival{Process: workload.ProcessGamma, Rate: wl.Rate * c.Share, Shape: arrivalShape},
			Mix:         mix,
			Zipf:        wl.Zipf,
			SLOMillis:   wl.SLOMillis,
			SweepAlphas: alphas,
		}
	}
	return &workload.Spec{
		Version:         workload.SpecVersion,
		DurationSeconds: window.Seconds(),
		Catalog:         wl.Catalog,
		Classes:         classes,
	}
}
