package cpu_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/workloads"
)

// BenchmarkSimulateMany times the calibration sweep's batch shape: the 48
// calibration-preset points on crc32/small at -O2 in one SimulateMany
// call. ns/model-instr is the wall time per simulated instruction per
// timing model.
func BenchmarkSimulateMany(b *testing.B) {
	w := workloads.ByName("crc32/small")
	cfgs := calibrationConfigs(b)
	prog := compileWorkload(b, w, cfgs[0].ISA, compiler.O2)
	var modelInstrs uint64
	b.ResetTimer()
	for range b.N {
		res, err := cpu.SimulateMany(prog, w.Setup, cfgs, 0)
		if err != nil {
			b.Fatal(err)
		}
		modelInstrs += res[0].Instrs * uint64(len(res))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(modelInstrs), "ns/model-instr")
}
