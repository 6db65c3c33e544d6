package main

// metricDef declares one metric of the ledger. BENCHMARK.json lists the
// same names, units and directions (TestBenchmarkJSON keeps the two in
// step); the end-to-end bounds live only there.
type metricDef struct {
	Name, Unit, Better string
	// Moves records, for a per-layer metric, which end-to-end metric it
	// should move and on which workload — the prediction a change to that
	// layer is judged against.
	Moves string
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Timings are medians over the passes of one run; the cell percentiles
// are each pass's percentile over its cells, median over the passes.
// fail_ratio is not in this list: it is 0 on a correct run, so the result
// line carries it as failed/attempted instead.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "cell_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cell_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer is the traced run's ledger. Times are per pass (median over
// the traced passes); counts are per pass and exact. A metric a workload
// does not exercise reads 0 there — on tables every proc.* metric is 0,
// which is the prediction for a transport change on that workload.
var perLayer = []metricDef{
	{"sweep.runcell_s", "s", "lower", "wall_s on chaos; ≈0 on proc"},
	{"sweep.persist_s", "s", "lower", "wall_s on chaos; ≈0 on proc"},
	{"sweep.cells", "count", "higher", "exact; attempted cells on tables and chaos"},
	{"sweep.skipped", "count", "lower", "exact; 0 on every workload"},
	{"sweep.failed", "count", "lower", "exact; 0 on every workload (fail_ratio)"},
	{"core.t1_s", "s", "lower", "wall_s and cell_p90_ms on tables"},
	{"core.t2_s", "s", "lower", "wall_s and cell_p90_ms on tables"},
	{"core.t3_s", "s", "lower", "wall_s and cell_p90_ms on tables"},
	{"core.t4_s", "s", "lower", "wall_s and cell_p90_ms on tables"},
	{"core.render_s", "s", "lower", "wall_s on tables"},
	{"engine.phases", "count", "lower", "exact; from the cost reports on tables and proc"},
	{"engine.model_time", "model_units", "lower", "exact; from the cost reports on tables and proc"},
	{"engine.requests", "count", "lower", "exact; merge-column entries on proc"},
	{"engine.coord_s", "s", "lower", "wall_s on proc"},
	{"engine.inproc_ns_per_req", "ns/req", "lower", "the floor of wall_s on proc"},
	{"proc.spawn_s", "s", "lower", "setup_s on proc"},
	{"proc.close_s", "s", "lower", "wall_s on proc"},
	{"proc.merge_s", "s", "lower", "wall_s on proc"},
	{"proc.merges", "count", "lower", "exact; wall_s on proc"},
	{"proc.merge_p50_us", "us", "lower", "wall_s and cell_p50_ms on proc"},
	{"proc.merge_p90_us", "us", "lower", "wall_s and cell_p90_ms on proc"},
	{"proc.bytes_computed", "bytes", "lower", "computed from the frame layout; wall_s on proc"},
	{"proc.w1.merge_s", "s", "lower", "wall_s on proc"},
	{"proc.w2.merge_s", "s", "lower", "wall_s on proc"},
	{"proc.scale_w2_over_w1", "ratio", "lower", "wall_s on proc (above 1 means a second worker slows merges)"},
	{"proc.spawns", "count", "lower", "exact; equals the worker count per cell"},
	{"proc.respawns", "count", "lower", "exact; 0"},
	{"chaos.verified", "count", "higher", "exact; fail_ratio on chaos"},
	{"chaos.diagnosed", "count", "lower", "exact; fail_ratio on chaos"},
	{"chaos.injected", "count", "higher", "exact; chaos fault coverage"},
	{"chaos.recovered", "count", "higher", "exact; chaos fault coverage"},
	{"chaos.masked", "count", "higher", "exact; chaos fault coverage"},
	{"chaos.qsm_s", "s", "lower", "wall_s on chaos"},
	{"chaos.sqsm_s", "s", "lower", "wall_s on chaos"},
	{"chaos.crqw_s", "s", "lower", "wall_s on chaos"},
	{"chaos.bsp_s", "s", "lower", "wall_s on chaos"},
	{"chaos.gsm_s", "s", "lower", "wall_s on chaos"},
	{"runtime.mallocs", "count", "lower", "alloc_mb and wall_s on tables"},
	{"runtime.num_gc", "count", "lower", "alloc_mb and wall_s on tables"},
	{"runtime.gc_cpu_frac", "frac", "lower", "wall_s on tables"},
	{"trace.overhead_s", "s", "lower", "none: traced minus untraced pass time"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger collects metric values by name before they are emitted against
// a definition list.
type ledger map[string]float64

// emit renders every metric of defs from l; a definition l lacks reads 0.
func (l ledger) emit(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: l[d.Name], Unit: d.Unit}
	}
	return out
}
