package main

// metricDef declares one metric: BENCHMARK.json lists the same names,
// units and directions, and bench_test.go checks that the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// The twelve end-to-end metrics.  Every workload reports every one, on
// its own path (README.md, "End-to-end metrics").  Bounds come from the
// spread across ten seeds on the sandbox (README.md, "Steadiness"): its
// speed moves by a tenth between runs, which every timing inherits.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"where_p50_us", "us", "lower", 0.25},
	{"when_p50_us", "us", "lower", 0.25},
	{"range_p50_us", "us", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"ingest_trajs_per_s", "1/s", "higher", 0.25},
	{"ingest_ack_p50_ms", "ms", "lower", 0.25},
	{"compress_trajs_per_s", "1/s", "higher", 0.25},
	{"decompress_trajs_per_s", "1/s", "higher", 0.25},
	{"compression_ratio", "ratio", "higher", 0.05},
	{"stored_bytes_per_traj", "B", "lower", 0.05},
	{"cold_open_ms", "ms", "lower", 0.25},
}

// The per-layer metrics of the traced run, grouped by layer (= package).
// A layer that a workload does not run reports 0: it cost nothing there.
var perLayer = []metricDef{
	{Name: "host.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "gen.build_ms_per_ktraj", Unit: "ms", Better: "lower"},

	{Name: "bitio.write_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "bitio.read_ns_per_op", Unit: "ns", Better: "lower"},

	{Name: "core.compress_us_per_traj", Unit: "us", Better: "lower"},
	{Name: "core.compress_allocs_per_traj", Unit: "count", Better: "lower"},
	{Name: "core.batch_compress_us", Unit: "us", Better: "lower"}, // one 16-trajectory delta batch
	{Name: "core.decode_us_per_traj", Unit: "us", Better: "lower"},
	{Name: "core.load_bytes_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ratio_dk", Unit: "ratio", Better: "higher"},
	{Name: "core.ratio_cd", Unit: "ratio", Better: "higher"},
	{Name: "core.ratio_hz", Unit: "ratio", Better: "higher"},
	{Name: "core.ratio_t", Unit: "ratio", Better: "higher"},
	{Name: "core.ratio_e", Unit: "ratio", Better: "higher"},
	{Name: "core.ratio_d", Unit: "ratio", Better: "higher"},
	{Name: "core.ratio_tf", Unit: "ratio", Better: "higher"},
	{Name: "core.ratio_p", Unit: "ratio", Better: "higher"},

	{Name: "stiu.build_us_per_traj", Unit: "us", Better: "lower"},
	{Name: "stiu.batch_build_us", Unit: "us", Better: "lower"}, // one 16-trajectory delta batch
	{Name: "stiu.sidecar_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "stiu.blocks_decoded_per_range", Unit: "count", Better: "lower"},
	{Name: "stiu.pruned_no_touch_share", Unit: "ratio", Better: "higher"},
	{Name: "stiu.temporal_sections_forced", Unit: "count", Better: "lower"},
	{Name: "stiu.index_bytes_per_traj", Unit: "B", Better: "lower"},
	{Name: "stiu.succinct_bytes_per_traj", Unit: "B", Better: "lower"},

	{Name: "query.where_us", Unit: "us", Better: "lower"},
	{Name: "query.when_us", Unit: "us", Better: "lower"},
	{Name: "query.range_us", Unit: "us", Better: "lower"},
	{Name: "query.where_allocs", Unit: "count", Better: "lower"},
	{Name: "query.when_allocs", Unit: "count", Better: "lower"},
	{Name: "query.range_allocs", Unit: "count", Better: "lower"},
	{Name: "query.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "query.paths_decoded_per_range", Unit: "count", Better: "lower"},
	{Name: "query.trajs_pruned_per_range", Unit: "count", Better: "higher"},
	{Name: "query.instances_skipped_per_range", Unit: "count", Better: "higher"},
	{Name: "query.range_hits_avg", Unit: "count", Better: "higher"},

	{Name: "store.where_self_us", Unit: "us", Better: "lower"},
	{Name: "store.when_self_us", Unit: "us", Better: "lower"},
	{Name: "store.range_self_us", Unit: "us", Better: "lower"},
	{Name: "store.where_allocs", Unit: "count", Better: "lower"},
	{Name: "store.build_ms_per_ktraj", Unit: "ms", Better: "lower"},
	{Name: "store.save_ms", Unit: "ms", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.first_query_us", Unit: "us", Better: "lower"},
	{Name: "store.apply_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "store.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "store.compactions", Unit: "count", Better: "lower"},
	{Name: "store.delta_shards_max", Unit: "count", Better: "lower"},
	{Name: "store.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "store.fsyncs_per_batch", Unit: "count", Better: "lower"},

	{Name: "mmapio.mapped_mb", Unit: "MB", Better: "lower"},
	{Name: "mmapio.rss_mb", Unit: "MB", Better: "lower"},

	{Name: "mapmatch.match_us_per_traj", Unit: "us", Better: "lower"},
	{Name: "mapmatch.batch_match_us", Unit: "us", Better: "lower"}, // one 16-trajectory batch on the ingester's worker pool
	{Name: "mapmatch.instances_per_traj", Unit: "count", Better: "higher"},
	{Name: "mapmatch.drop_share", Unit: "ratio", Better: "lower"},

	{Name: "ingest.wal_append_us_per_traj", Unit: "us", Better: "lower"},
	{Name: "ingest.wal_sync_us", Unit: "us", Better: "lower"},
	{Name: "ingest.wal_bytes_per_traj", Unit: "B", Better: "lower"},
	{Name: "ingest.submit_batch_us", Unit: "us", Better: "lower"},
	{Name: "ingest.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.flush_allocs_per_traj", Unit: "count", Better: "lower"},
	{Name: "ingest.self_us_per_batch", Unit: "us", Better: "lower"},

	{Name: "server.where_self_us", Unit: "us", Better: "lower"},
	{Name: "server.when_self_us", Unit: "us", Better: "lower"},
	{Name: "server.range_self_us", Unit: "us", Better: "lower"},
	{Name: "server.ingest_self_us", Unit: "us", Better: "lower"},
	{Name: "server.where_allocs", Unit: "count", Better: "lower"},
	{Name: "server.range_allocs", Unit: "count", Better: "lower"},

	{Name: "client.where_self_us", Unit: "us", Better: "lower"},
	{Name: "client.range_self_us", Unit: "us", Better: "lower"},
	{Name: "client.ingest_self_us", Unit: "us", Better: "lower"},
	{Name: "client.where_allocs", Unit: "count", Better: "lower"},
	{Name: "client.where_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.when_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.range_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.ingest_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "client.giveups", Unit: "count", Better: "lower"},

	{Name: "cluster.where_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.when_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.range_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.ingest_self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.holes", Unit: "count", Better: "lower"},
	{Name: "cluster.members_unhealthy", Unit: "count", Better: "lower"},

	// The outermost span of the serial traced replay, to set beside the
	// untraced p50: the difference is tracing plus serialisation.
	{Name: "trace.where_outer_us", Unit: "us", Better: "lower"},
	{Name: "trace.when_outer_us", Unit: "us", Better: "lower"},
	{Name: "trace.range_outer_us", Unit: "us", Better: "lower"},
	{Name: "trace.untraced_where_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.untraced_when_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.untraced_range_p50_us", Unit: "us", Better: "lower"},
}
