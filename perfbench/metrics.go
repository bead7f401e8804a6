package main

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics, reported on every workload.
// Reads are Gets or Scans: each workload issues one of the two.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"write_amp", "ratio", "lower"},
	{"space_amp", "ratio", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics, by layer. A layer a workload's
// path bypasses, or one inside a metnode process that does not export
// it, reports notObserved.
var perLayer = []metricDef{
	{"setup.boot_s", "s", "lower"},
	{"setup.load_s", "s", "lower"},
	{"setup.flush_s", "s", "lower"},
	{"setup.spawn_s", "s", "lower"},
	{"setup.warm_s", "s", "lower"},
	{"ycsb.gen_ns_per_op", "ns", "lower"},
	{"check.ns_per_op", "ns", "lower"},
	{"rpc.get_client_us_mean", "us", "lower"},
	{"rpc.put_client_us_mean", "us", "lower"},
	{"rpc.get_handler_us_mean", "us", "lower"},
	{"rpc.put_handler_us_mean", "us", "lower"},
	{"rpc.get_wire_us_mean", "us", "lower"},
	{"rpc.put_wire_us_mean", "us", "lower"},
	{"rpc.get_middleware_us_mean", "us", "lower"},
	{"rpc.put_middleware_us_mean", "us", "lower"},
	{"rpc.engine_get_ref_us_mean", "us", "lower"},
	{"rpc.engine_put_ref_us_mean", "us", "lower"},
	{"proc.client_cpu_us_per_op", "us", "lower"},
	{"proc.server_cpu_us_per_op", "us", "lower"},
	{"proc.alloc_bytes_per_op", "bytes", "lower"},
	{"proc.gc_cycles_per_kop", "count", "lower"},
	{"hbase.get_us_mean", "us", "lower"},
	{"hbase.put_us_mean", "us", "lower"},
	{"hbase.scan_us_mean", "us", "lower"},
	{"hbase.route_us_mean", "us", "lower"},
	{"hbase.regions_per_scan", "ratio", "lower"},
	{"hdfs.locality_min", "ratio", "higher"},
	{"kv.cache_hit_ratio", "ratio", "higher"},
	{"kv.blocks_read_per_get", "ratio", "lower"},
	{"kv.blocks_read_per_scan", "ratio", "lower"},
	{"kv.entries_per_scan", "ratio", "lower"},
	{"kv.flushes", "count", "lower"},
	{"kv.flush_ms_mean", "ms", "lower"},
	{"kv.stall_ms", "ms", "lower"},
	{"kv.stalled_writes", "count", "lower"},
	{"kv.engine_write_amp", "ratio", "lower"},
	{"durable.wal_appends", "count", "lower"},
	{"durable.writes_per_fsync", "ratio", "higher"},
	{"durable.fsync_us_p50", "us", "lower"},
	{"durable.fsync_us_p99", "us", "lower"},
	{"durable.wal_bytes_per_put", "bytes", "lower"},
	{"compaction.count", "count", "lower"},
	{"compaction.bytes_in", "bytes", "lower"},
	{"compaction.bytes_out", "bytes", "lower"},
	{"compaction.ms_total", "ms", "lower"},
	{"compaction.budget_wait_ms", "ms", "lower"},
	{"compaction.conflicts", "count", "lower"},
	{"compaction.failures", "count", "lower"},
	{"replication.files_shipped", "count", "lower"},
	{"replication.bytes_shipped", "bytes", "lower"},
	{"replication.ship_ms_mean", "ms", "lower"},
	{"replication.tail_ships", "count", "lower"},
	{"replication.tail_bytes_per_ship", "bytes", "lower"},
	{"replication.tail_ship_us_p50", "us", "lower"},
	{"replication.tail_ship_us_p99", "us", "lower"},
	{"replication.failed_round_ratio", "ratio", "lower"},
	{"replication.tail_floor_ships", "count", "lower"},
	{"stage.route_us_mean", "us", "lower"},
	{"stage.memstore_us_mean", "us", "lower"},
	{"stage.block_cache_us_mean", "us", "lower"},
	{"stage.sstable_read_us_mean", "us", "lower"},
	{"stage.iterate_us_mean", "us", "lower"},
	{"stage.wal_append_us_mean", "us", "lower"},
	{"stage.wal_sync_us_mean", "us", "lower"},
	{"stage.other_us_mean", "us", "lower"},
	{"stage.unaccounted_us_mean", "us", "lower"},
	{"stage.sampled_ops", "count", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}
