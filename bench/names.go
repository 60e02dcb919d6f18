package main

// This file is the harness's table of names: every workload and metric
// the benchmark can emit. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds; bench_test.go fails when the
// two drift apart.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// Workload names.
const (
	wlPaperRound   = "paper-round"
	wlScale1k      = "scale-1k"
	wlScaleSharded = "scale-1k-sharded"
	wlService      = "service-session"
)

var workloads = []workloadDef{
	{wlPaperRound, "the paper's envelope: dense engine, all five stacks on testbed-a under the fig8 jammers at join 0.9 (sdn missed a full join on 22 of 60 seeds at 1.0); server, snapshot and sparse engine idle"},
	{wlScale1k, "sparse engine, one shard, steady state of a formed, pinned 1000-node plant (64 flows, PDR 0.46; 0.44-0.57 over ten flow phases); Build, HTTP and codecs are outside the ops: only slot-loop changes show"},
	{wlScaleSharded, "same plant and flows with Shards 2: the only workload that pays the per-phase fork/join, slower than one shard on 2 cores; its state digest must equal scale-1k's"},
	{wlService, "gateway, server, warm pool, store, SSE, tracer: cold run, warm run, then 8 x (dup POST, result GET, status GET) per session; the 1:1:8 mix is the issue's guess; the service takes a fifth of the op"},
}

// End-to-end metric names.
const (
	mSetupS       = "setup_s"
	mOpsPerS      = "ops_per_s"
	mOpMsP50      = "op_ms_p50"
	mSlotsPerS    = "slots_per_s"
	mPeakRSSMB    = "peak_rss_mb"
	mSimPDR       = "sim_pdr"
	mSimLatency   = "sim_latency_p50_slots"
	mSimFormation = "sim_formation_slots"
)

// endToEnd lists what a user of the system sees: host time at the
// reference speed (ref.go), except peak_rss_mb and the sim_ metrics. The
// host-time bounds are at least three times the spread measured between
// seeds on the 2-core host this was sized on (see README.md), capped at
// the contract's 0.25. The sim_ metrics are simulated statistics over
// pinned inputs (guardSeed), in the simulator's own unit of time, the
// 10 ms slot: they are constants of the program and any change in them is
// a change of the simulation, so their bounds are 1 %.
var endToEnd = []metricDef{
	{mSetupS, "s", "lower", 0.25},
	{mOpsPerS, "1/s", "higher", 0.25},
	{mOpMsP50, "ms", "lower", 0.25},
	{mSlotsPerS, "1/s", "higher", 0.25},
	{mPeakRSSMB, "MB", "lower", 0.25},
	{mSimPDR, "ratio", "higher", 0.01},
	{mSimLatency, "slots", "lower", 0.01},
	{mSimFormation, "slots", "lower", 0.01},
}

// perLayer lists the per-layer metrics of the traced run, layer = module
// name. A metric reads 0 on a workload where its layer does no work.
var perLayer = []metricDef{
	{"topology.build_ms", "ms", "lower", 0},
	{"scenario.build_ms", "ms", "lower", 0},
	{"scenario.runspec_cold_ms_p50", "ms", "lower", 0},
	{"scenario.runspec_warm_ms_p50", "ms", "lower", 0},
	{"scenario.budget_gap_ratio", "ratio", "lower", 0},

	{"sim.form_ms_p50", "ms", "lower", 0},
	{"sim.window_ms_p50", "ms", "lower", 0},
	{"sim.dense_us_per_slot", "us", "lower", 0},
	{"sim.scale_us_per_slot", "us", "lower", 0},
	{"sim.ns_per_node_slot", "ns", "lower", 0},
	{"sim.mallocs_per_kslot", "count", "lower", 0},
	{"sim.alloc_kb_per_kslot", "KB", "lower", 0},
	{"sim.shard_busy_ratio", "ratio", "higher", 0},
	{"sim.shard_imbalance", "ratio", "lower", 0},
	{"sim.barrier_us_per_slot", "us", "lower", 0},
	{"sim.sharded_slowdown", "ratio", "lower", 0},
	{"sim.latency_p90_ms", "ms", "lower", 0},

	{"mac.tx_per_kslot", "count", "lower", 0},
	{"mac.rx_per_kslot", "count", "lower", 0},
	{"mac.drop_per_kslot", "count", "lower", 0},
	{"mac.delivery_ratio", "ratio", "higher", 0},
	{"mac.duty_cycle", "ratio", "lower", 0},

	{"core.run_ms_p50", "ms", "lower", 0},
	{"orchestra.run_ms_p50", "ms", "lower", 0},
	{"whart.run_ms_p50", "ms", "lower", 0},
	{"controller.sdn_run_ms_p50", "ms", "lower", 0},
	{"controller.adaptive_run_ms_p50", "ms", "lower", 0},
	{"core.us_per_slot", "us", "lower", 0},
	{"orchestra.us_per_slot", "us", "lower", 0},
	{"whart.us_per_slot", "us", "lower", 0},
	{"controller.sdn_us_per_slot", "us", "lower", 0},
	{"controller.adaptive_us_per_slot", "us", "lower", 0},
	{"core.form_slots_p50", "count", "lower", 0},
	{"orchestra.form_slots_p50", "count", "lower", 0},
	{"whart.form_slots_p50", "count", "lower", 0},
	{"controller.sdn_form_slots_p50", "count", "lower", 0},
	{"controller.adaptive_form_slots_p50", "count", "lower", 0},
	{"controller.sdn_form_fail_ratio", "ratio", "lower", 0},

	{"chaos.overhead_ratio", "ratio", "lower", 0},
	{"invariant.overhead_ratio", "ratio", "lower", 0},
	{"telemetry.overhead_ratio", "ratio", "lower", 0},
	{"telemetry.events_per_kslot", "count", "lower", 0},

	{"snapshot.take_ms", "ms", "lower", 0},
	{"snapshot.encode_ms", "ms", "lower", 0},
	{"snapshot.decode_ms", "ms", "lower", 0},
	{"snapshot.restore_ms", "ms", "lower", 0},
	{"snapshot.bytes", "count", "lower", 0},
	{"snapshot.cache_load_ms", "ms", "lower", 0},
	{"snapshot.cache_store_ms", "ms", "lower", 0},
	{"store.write_small_ms_p50", "ms", "lower", 0},
	{"store.write_snap_ms_p50", "ms", "lower", 0},

	{"server.cold_ms_p50", "ms", "lower", 0},
	{"server.warm_ms_p50", "ms", "lower", 0},
	{"server.dup_ms_p50", "ms", "lower", 0},
	{"server.read_ms_p50", "ms", "lower", 0},
	{"server.status_ms_p50", "ms", "lower", 0},
	{"server.queued_ms_p50", "ms", "lower", 0},
	{"server.run_ms_p50", "ms", "lower", 0},
	{"server.overhead_ms_p50", "ms", "lower", 0},
	{"server.warm_hit_ratio", "ratio", "higher", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.retried_429", "count", "lower", 0},
	{"server.stream_lines_per_job", "count", "lower", 0},
	{"server.stream_dropped", "count", "lower", 0},

	{"gateway.hop_ms_p50", "ms", "lower", 0},
	{"gateway.read_hop_ms_p50", "ms", "lower", 0},
	{"gateway.failovers", "count", "lower", 0},
	{"gateway.hedges", "count", "lower", 0},

	{"campaign.parallel_speedup", "ratio", "higher", 0},

	{"share.sim", "ratio", "higher", 0},
	{"share.service", "ratio", "higher", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.op_ms_p90", "ms", "lower", 0},
	{"bench.raw_op_ms_p50", "ms", "lower", 0},
	{"bench.host_speed", "ratio", "higher", 0},
	{"bench.ref_after_op_ratio", "ratio", "lower", 0},
}
