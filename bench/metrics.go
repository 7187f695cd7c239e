package main

// metricDef declares one reported metric. BENCHMARK.json repeats the
// lists below; TestBenchmarkJSONMatchesMetricLists keeps them in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the program sees, reported by
// every workload from a run with no instrumentation.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_min", "cells/min", "higher", 0.25},
	{"cpu_ms_per_cell", "ms", "lower", 0.25},
	{"allocs_per_cell", "count", "lower", 0.05},
	{"alloc_kb_per_cell", "KiB", "lower", 0.1},
	{"max_rss_mb", "MiB", "lower", 0.2},
}

// profLayers are the buckets the traced run's CPU profile is folded
// into, by the package of the innermost attributable frame.
var profLayers = []string{
	"sim", "deps", "mem", "xfer", "sched", "verprof", "rt", "trace",
	"chaos", "apps", "exp", "journal", "sweepd", "json", "gc", "other",
}

// perLayer are the metrics of single layers, reported by the traced
// run. A layer that does no work on a workload reports 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Engine probes: public entry points on inputs from the heavy cell.
		{"sim.event_ns", "ns", "lower", 0},
		{"sim.park_unpark_ns", "ns", "lower", 0},
		{"deps.add_ns", "ns", "lower", 0},
		{"mem.acquire_release_ns", "ns", "lower", 0},
		{"xfer.transfer_ns", "ns", "lower", 0},
		{"verprof.lookup_ns", "ns", "lower", 0},
		{"trace.record_ns", "ns", "lower", 0},
		{"apps.build_us", "us", "lower", 0},
		// The versioning policy behind the rt.Scheduler interface.
		{"sched.ready_ns", "ns", "lower", 0},
		{"sched.next_ns", "ns", "lower", 0},
		{"sched.finished_ns", "ns", "lower", 0},
		{"sched.next_calls_per_task", "count", "lower", 0},
		{"sched.next_useful_ratio", "ratio", "higher", 0},
		// Go runtime.
		{"gc.cpu_ms_per_cell", "ms", "lower", 0},
		{"gc.cycles_per_cell", "count", "lower", 0},
		{"gc.pause_us_per_cell", "us", "lower", 0},
		// Campaign layers, timed by wrapping CellStore, Observer and
		// the server's http.Handler.
		{"exp.hash_us", "us", "lower", 0},
		{"store.load_us", "us", "lower", 0},
		{"store.loads_per_cell", "count", "lower", 0},
		{"store.load_hit_ratio", "ratio", "higher", 0},
		{"store.store_us", "us", "lower", 0},
		{"store.claim_us", "us", "lower", 0},
		{"store.claims_per_cell", "count", "lower", 0},
		{"store.append_us", "us", "lower", 0},
		{"store.appends_per_cell", "count", "lower", 0},
		{"store.snapshot_ms", "ms", "lower", 0},
		{"store.poll_journal_ms", "ms", "lower", 0},
		{"campaign.run_ms_p50", "ms", "lower", 0},
		{"campaign.other_ms_per_cell", "ms", "lower", 0},
		{"chaos.extra_ms_per_cell", "ms", "lower", 0},
		{"output.render_ms", "ms", "lower", 0},
		{"forensics.replay_ms", "ms", "lower", 0},
		{"sweepd.serve_us", "us", "lower", 0},
		{"sweepd.requests_per_cell", "count", "lower", 0},
		// The traced run itself.
		{"trace.cpu_ms_per_cell", "ms", "lower", 0},
		{"trace.overhead_cpu_ms_per_cell", "ms", "lower", 0},
		{"prof.sum_over_cpu", "ratio", "higher", 0},
	}
	for _, l := range profLayers {
		defs = append(defs, metricDef{"prof." + l + ".self_ms_per_cell", "ms", "lower", 0})
	}
	return defs
}()
