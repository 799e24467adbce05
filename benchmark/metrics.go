package main

// metricDef names one reported number. BENCHMARK.json at the root of
// the repository carries the same names, units, directions and bounds;
// a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the baseline median the metric may worsen by; end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are the twelve numbers a user of the system sees; every
// workload reports all of them.
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"mb_per_s", "MiB/s", higher, 0.25},
	{"read_p50_us", "us", lower, 0.25},
	{"write_p50_us", "us", lower, 0.25},
	{"read_p95_us", "us", lower, 0.25},
	{"write_p95_us", "us", lower, 0.25},
	{"ok_ratio", "ratio", higher, 0.001},
	{"allocs_per_op", "1", lower, 0.03},
	{"alloc_kb_per_op", "KiB", lower, 0.05},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"live_heap_mb", "MiB", lower, 0.25},
}

// perLayerDefs are the numbers of single layers, from the traced run's
// spans, the layers' public counters, and direct probes.
var perLayerDefs = []metricDef{
	{name: "app.self_us_per_op", unit: "us", better: lower},
	{name: "adapter.calls_per_op", unit: "1", better: lower},
	{name: "adapter.self_us_per_op", unit: "us", better: lower},
	{name: "adapter.retries", unit: "count", better: lower},
	{name: "adapter.reconnects", unit: "count", better: lower},
	{name: "adapter.gave_up", unit: "count", better: lower},
	{name: "cache.self_us_per_op", unit: "us", better: lower},
	{name: "cache.inner_calls_per_op", unit: "1", better: lower},
	{name: "cache.attr_hit_ratio", unit: "ratio", better: higher},
	{name: "cache.dirent_hit_ratio", unit: "ratio", better: higher},
	{name: "cache.page_hit_ratio", unit: "ratio", better: higher},
	{name: "cache.renewals_per_op", unit: "1", better: lower},
	{name: "cache.invalidations_per_op", unit: "1", better: lower},
	{name: "cache.flushes_per_op", unit: "1", better: lower},
	{name: "abstraction.self_us_per_op", unit: "us", better: lower},
	{name: "abstraction.inner_calls_per_op", unit: "1", better: lower},
	{name: "abstraction.hedges", unit: "count", better: lower},
	{name: "abstraction.breaker_trips", unit: "count", better: lower},
	{name: "resilient.budget_exhausted", unit: "count", better: lower},
	{name: "chirp_client.rpcs_per_op", unit: "1", better: lower},
	{name: "chirp_client.rpc_us_mean", unit: "us", better: lower},
	{name: "chirp_client.conns", unit: "count", better: lower},
	{name: "client.read_p99_us", unit: "us", better: lower},
	{name: "client.write_p99_us", unit: "us", better: lower},
	{name: "chirp_server.requests_per_op", unit: "1", better: lower},
	{name: "chirp_server.service_us_per_rpc", unit: "us", better: lower},
	{name: "chirp_server.bytes_in_per_op", unit: "B", better: lower},
	{name: "chirp_server.bytes_out_per_op", unit: "B", better: lower},
	{name: "chirp_server.lease_grants_per_op", unit: "1", better: lower},
	{name: "chirp_server.lease_breaks_per_op", unit: "1", better: lower},
	{name: "chirp_server.bulk_fastpath_per_op", unit: "1", better: higher},
	{name: "chirp_server.shed", unit: "count", better: lower},
	{name: "chirp_server.deadline_rejects", unit: "count", better: lower},
	{name: "wire.us_per_rpc", unit: "us", better: lower},
	{name: "proto.parse_ns_per_req", unit: "ns", better: lower},
	{name: "proto.parse_allocs_per_req", unit: "1", better: lower},
	{name: "proto.encode_ns_per_req", unit: "ns", better: lower},
	{name: "acl.parse_check_ns", unit: "ns", better: lower},
	{name: "vfs.local_replay_ops_per_s", unit: "1/s", better: higher},
	{name: "vfs.local_read_p50_us", unit: "us", better: lower},
	{name: "auth.dial_auth_us", unit: "us", better: lower},
	{name: "chirp_client.getfile_plain_mb_s", unit: "MiB/s", better: higher},
	{name: "chirp_client.putfile_plain_mb_s", unit: "MiB/s", better: higher},
	{name: "runtime.gc_cycles_per_kop", unit: "1", better: lower},
	{name: "ceiling.tcp_null_rtt_us", unit: "us", better: lower},
	{name: "ceiling.tcp_stream_mb_s", unit: "MiB/s", better: higher},
	{name: "ceiling.netsim_null_rtt_us", unit: "us", better: lower},
	{name: "ceiling.local_fraction", unit: "ratio", better: higher},
	{name: "ceiling.bulk_fraction", unit: "ratio", better: higher},
	{name: "trace.closure_ratio", unit: "ratio", better: lower},
	{name: "trace.overhead_ratio", unit: "ratio", better: higher},
	{name: "trace.spans_per_op", unit: "1", better: lower},
}
