package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0): what a caller
// of the service sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"goodput", "ratio"},
	{"ok_share", "ratio"},
	{"cpu_ms_per_op", "ms/op"},
	{"alloc_kb_per_op", "KiB/op"},
	{"rss_peak_mb", "MiB"},
}

// perLayer are the metrics of a traced run (--trace 1), one group per
// layer a request crosses. Metrics of a layer a workload does not cross
// (the router on direct workloads, the sweep engine on schedule ones)
// read 0.
var perLayer = []metricDef{
	{"dag.decode_us", "us"},
	{"dag.hash_us", "us"},
	{"router.routing_key_us", "us"},
	{"router.hop_us", "us"},
	{"router.spillovers", "count"},
	{"router.affinity_share", "ratio"},
	{"serve.handler_us", "us"},
	{"serve.admission_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.resolve_us", "us"},
	{"serve.engine_us", "us"},
	{"serve.finalize_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.sweep_us", "us"},
	{"serve.session_hit_ratio", "ratio"},
	{"session.new_us", "us"},
	{"session.schedule_us", "us"},
	{"session.finalize_us", "us"},
	{"session.candidate_hit_ratio", "ratio"},
	{"engine.rank_us", "us"},
	{"engine.statics_us", "us"},
	{"engine.replay_us", "us"},
	{"engine.placement_us", "us"},
	{"sweep.point_us", "us"},
	{"sweep.replayed_share", "ratio"},
	{"sweep.truncated_points", "count"},
	{"loadgen.lateness_p95_ms", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_count", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.attributed_share", "ratio"},
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
