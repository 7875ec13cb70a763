package main

import "repro/internal/pipeline"

// metric is one entry of the benchmark's metric catalogue. BENCHMARK.json
// at the repository root lists the same names, units and directions; a
// test keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "cpi_corr", Unit: "ratio", Better: "higher"},
	{Name: "speedup_err_avg", Unit: "ratio", Better: "lower"},
	{Name: "speedup_err_max", Unit: "ratio", Better: "lower"},
}

// figureNames are the quick workloads' figure calls, in render order.
var figureNames = []string{
	"table2", "fig4", "fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11", "obfuscation",
}

// counted are the pipeline stages whose computations are reported.
var counted = []pipeline.Stage{
	pipeline.StageParse, pipeline.StageCheck, pipeline.StageCompile,
	pipeline.StageProfile, pipeline.StageSynthesize, pipeline.StageSimulate,
}

// perLayer are the metrics of single layers, reported by every traced run;
// each name starts with its layer's package.
var perLayer = func() []metric {
	ms := []metric{
		{"compiler.O0_s", "s", "lower"},
		{"compiler.O1_s", "s", "lower"},
		{"compiler.O2_s", "s", "lower"},
		{"compiler.O3_s", "s", "lower"},
		{"compiler.compiles", "count", "lower"},
		{"compiler.orig_static_instrs", "count", "lower"},
		{"compiler.clone_static_instrs", "count", "lower"},
		{"hlc.parse_check_s", "s", "lower"},
		{"profile.s", "s", "lower"},
		{"profile.mips", "MIPS", "higher"},
		{"core.synthesize_s", "s", "lower"},
		{"core.calib_vm_instrs", "count", "lower"},
		{"vm.fast_mips", "MIPS", "higher"},
		{"vm.hooked_mips", "MIPS", "higher"},
		{"vm.instrs", "count", "lower"},
		{"cpu.ooo_ns_per_instr", "ns", "lower"},
		{"cpu.epic_ns_per_instr", "ns", "lower"},
		{"cpu.ooo_sims", "count", "lower"},
		{"cpu.epic_sims", "count", "lower"},
		{"cpu.sim_instrs", "count", "lower"},
		{"cpu.sim_cycles", "count", "lower"},
		{"cache.ns_per_access", "ns", "lower"},
		{"cache.sweep_ns_per_access", "ns", "lower"},
		{"bpred.ns_per_branch", "ns", "lower"},
		{"store.gets", "count", "lower"},
		{"store.puts", "count", "lower"},
		{"store.get_s", "s", "lower"},
		{"store.put_s", "s", "lower"},
		{"store.read_mb", "MB", "lower"},
		{"store.write_mb", "MB", "lower"},
		{"pipeline.hits", "count", "higher"},
		{"pipeline.disk_hits", "count", "higher"},
		{"pipeline.misses", "count", "lower"},
		{"pipeline.hit_rate", "ratio", "higher"},
	}
	for _, st := range counted {
		ms = append(ms, metric{"pipeline.computed." + st.String(), "count", "lower"})
	}
	for _, f := range figureNames {
		ms = append(ms, metric{"experiments." + f + "_s", "s", "lower"})
	}
	return append(ms,
		metric{"explore.cells", "count", "lower"},
		metric{"explore.s_per_cell", "s", "lower"},
		metric{"trace.overhead_s", "s", "lower"},
	)
}()

// value is one reported metric value with its unit, as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills the named catalogue's metrics from vals, in catalogue
// order; a metric the run could not measure reads 0.
func report(catalogue []metric, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(catalogue))
	for _, m := range catalogue {
		out[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}
