package main

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; a test keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed relative worsening of the median
}

// endToEnd are the numbers a user of each workload sees. Every workload
// reports every one of them; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"time_ms", "ms", "lower", 0.10},
	{"ref_ms", "ms", "lower", 0.10},
	{"accuracy_pct", "%", "higher", 0.01},
	{"peak_heap_mib", "MiB", "lower", 0.10},
}

// perLayer are the single-layer numbers of the traced run. Every workload
// reports every one; a layer the workload bypasses reads 0, which is the
// prediction for it.
var perLayer = []metricDef{
	// mpi: point-to-point traffic of the p=2 core run (collectives included).
	{"mpi.msgs", "count", "lower", 0},
	{"mpi.bytes", "bytes", "lower", 0},
	{"mpi.msgs_per_iter", "count", "lower", 0},
	{"mpi.bytes_per_iter", "bytes", "lower", 0},
	// core: the paper's distributed solver.
	{"core.p1_ms", "ms", "lower", 0},
	{"core.p2_ms", "ms", "lower", 0},
	{"core.speedup_vs_smo", "x", "higher", 0},
	{"core.scaling_p2", "x", "higher", 0},
	{"core.cpu_per_wall.p2", "x", "higher", 0},
	{"core.rank_skew", "x", "lower", 0},
	{"core.iterations.p1", "count", "lower", 0},
	{"core.iterations.p2", "count", "lower", 0},
	{"core.shrink_events", "count", "lower", 0},
	{"core.reconstructions", "count", "lower", 0},
	{"core.final_active", "count", "lower", 0},
	// kernel: evaluation cost and counts per engine.
	{"kernel.ns_per_eval", "ns", "lower", 0},
	{"kernel.evals.core_p1", "count", "lower", 0},
	{"kernel.evals.core_p2", "count", "lower", 0},
	{"kernel.evals.smo", "count", "lower", 0},
	{"kernel.evals.smo2", "count", "lower", 0},
	{"kernel.compute_ms.core_p2", "ms", "lower", 0},
	{"kernel.compute_ms.smo", "ms", "lower", 0},
	{"kernel.compute_ms.smo2", "ms", "lower", 0},
	// cache: the smo kernel-row LRU.
	{"cache.hits", "count", "higher", 0},
	{"cache.misses", "count", "lower", 0},
	{"cache.evictions", "count", "lower", 0},
	{"cache.hit_rate", "%", "higher", 0},
	// smo: the single-node engines.
	{"smo.ms", "ms", "lower", 0},
	{"smo2.ms", "ms", "lower", 0},
	{"smo.iterations", "count", "lower", 0},
	{"smo2.iterations", "count", "lower", 0},
	{"smo.shrink_events", "count", "lower", 0},
	{"smo.reconstructions", "count", "lower", 0},
	// sparse: the out-of-core block LRU.
	{"sparse.ooc.loads", "count", "lower", 0},
	{"sparse.ooc.hits", "count", "higher", 0},
	{"sparse.ooc.evictions", "count", "lower", 0},
	{"sparse.ooc.hit_rate", "%", "higher", 0},
	{"sparse.ooc.read_mib", "MiB", "lower", 0},
	// dataset: generation, the libsvm writer and parser, the spill.
	{"dataset.generate_s", "s", "lower", 0},
	{"dataset.write_s", "s", "lower", 0},
	{"dataset.parse_mib_s", "MiB/s", "higher", 0},
	{"dataset.open_ooc_s", "s", "lower", 0},
	// linear: the explicit-w engine.
	{"linear.iterations", "count", "lower", 0},
	{"linear.ooc_ms", "ms", "lower", 0},
	{"linear.inmem_ms", "ms", "lower", 0},
	{"linear.ooc_slowdown", "x", "lower", 0},
	// serve: latency per rate step and deltas of the /metrics scrape.
	{"serve.p50_ms.r1000", "ms", "lower", 0},
	{"serve.p50_ms.r2000", "ms", "lower", 0},
	{"serve.p99_ms.r1000", "ms", "lower", 0},
	{"serve.p99_ms.r2000", "ms", "lower", 0},
	{"serve.p99_ms.r12000", "ms", "lower", 0},
	{"serve.goodput_rps.r12000", "1/s", "higher", 0},
	{"serve.batch_rows_mean.r1000", "rows", "higher", 0},
	{"serve.batch_rows_mean.r2000", "rows", "higher", 0},
	{"serve.batch_rows_mean.r12000", "rows", "higher", 0},
	{"serve.queue_wait_ms_mean.r1000", "ms", "lower", 0},
	{"serve.queue_wait_ms_mean.r2000", "ms", "lower", 0},
	{"serve.queue_wait_ms_mean.r12000", "ms", "lower", 0},
	{"serve.exec_us_per_row.r1000", "us", "lower", 0},
	{"serve.exec_us_per_row.r2000", "us", "lower", 0},
	{"serve.exec_us_per_row.r12000", "us", "lower", 0},
	{"serve.shed.r12000", "count", "lower", 0},
	{"serve.admitted", "count", "higher", 0},
	{"serve.late", "count", "lower", 0},
	{"serve.gen_lag_ms_max", "ms", "lower", 0},
	// model: prediction outside the server.
	{"model.predict_us_per_row", "us", "lower", 0},
	{"model.sv_count", "count", "lower", 0},
	{"model.packed_bytes", "bytes", "lower", 0},
	// oracle: correctness only.
	{"oracle.verify_s", "s", "lower", 0},
	{"oracle.gap_ratio.core", "x", "lower", 0},
	{"oracle.gap_ratio.smo", "x", "lower", 0},
	{"oracle.gap_ratio.smo2", "x", "lower", 0},
	{"oracle.gap_ratio.linear", "x", "lower", 0},
	// perfmodel: predicted over measured core time.
	{"perfmodel.ratio.p1", "x", "higher", 0},
	{"perfmodel.ratio.p2", "x", "higher", 0},
	// runtime and the benchmark itself.
	{"heap.peak_live_mib", "MiB", "lower", 0},
	{"gc.cycles", "count", "lower", 0},
	{"gc.pause_ms", "ms", "lower", 0},
	{"speed.factor", "x", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.glue_pct", "%", "lower", 0},
}
