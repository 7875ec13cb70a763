package cpu_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestSimulateManyMatchesSimulate pins the batched simulation path to the
// per-config one: one interpretation fanned out to K timing models must
// serialize exactly like K separate Simulate calls, in config order.
func TestSimulateManyMatchesSimulate(t *testing.T) {
	w := workloads.ByName("crc32/small")
	if w == nil {
		t.Fatal("crc32/small not registered")
	}

	t.Run("TableIIIByISA", func(t *testing.T) {
		byISA := map[*isa.Desc][]cpu.Config{}
		var order []*isa.Desc
		for _, m := range cpu.Machines {
			if byISA[m.ISA] == nil {
				order = append(order, m.ISA)
			}
			byISA[m.ISA] = append(byISA[m.ISA], m)
		}
		for _, target := range order {
			prog := compileWorkload(t, w, target, compiler.O2)
			assertBatchMatches(t, prog, w.Setup, byISA[target], 0)
		}
	})

	t.Run("CalibrationPoints", func(t *testing.T) {
		cfgs := calibrationConfigs(t)
		prog := compileWorkload(t, w, cfgs[0].ISA, compiler.O2)
		assertBatchMatches(t, prog, w.Setup, cfgs, 0)
	})

	t.Run("Truncated", func(t *testing.T) {
		prog := compileWorkload(t, w, isa.AMD64, compiler.O2)
		cfgs := []cpu.Config{cpu.Simulated2Wide(8), cpu.Core2, cpu.CoreI7}
		got := assertBatchMatches(t, prog, w.Setup, cfgs, 50_000)
		if n := got[0].Instrs; n < 50_000 || n > 50_001 {
			t.Errorf("truncated batch executed %d instrs, want ~50000", n)
		}
	})

	t.Run("BlockBoundaries", func(t *testing.T) {
		// The golden budgets sit on either side of one block and well past
		// many, so a lost or doubled partial block changes a digest.
		if cpu.BlockSize != 256 {
			t.Fatalf("block size %d: the budgets below no longer straddle a block", cpu.BlockSize)
		}
		prog := compileWorkload(t, w, isa.AMD64, compiler.O2)
		for _, budget := range []uint64{1, 255, 256, 257, 50_001} {
			got := assertBatchMatches(t, prog, w.Setup, boundaryConfigs, budget)
			checkDigest(t, summaries(got), goldenBoundaries[budget])
		}
	})

	t.Run("ShortProgram", func(t *testing.T) {
		prog := compileSource(t, shortSrc, isa.AMD64, compiler.O2)
		got := assertBatchMatches(t, prog, nil, boundaryConfigs, 0)
		if n := got[0].Instrs; n == 0 || n >= cpu.BlockSize {
			t.Fatalf("short program executed %d instrs, want fewer than one block", n)
		}
		checkDigest(t, summaries(got), goldenShortProgram)
	})

	t.Run("MixedPredictors", func(t *testing.T) {
		prog := compileWorkload(t, w, isa.AMD64, compiler.O2)
		var cfgs []cpu.Config
		for i, name := range []string{
			cpu.PredictorHybrid, cpu.PredictorBimodal, cpu.PredictorGShare,
			cpu.PredictorHybrid, cpu.PredictorGShare, cpu.PredictorBimodal, "",
		} {
			cfg := cpu.Simulated2Wide(8)
			cfg.Name = fmt.Sprintf("%d-%s", i, name)
			cfg.NewPredictor = cpu.PredictorByName(name)
			cfg.ROB = 16 << (i % 3) // vary the window so the models diverge
			cfgs = append(cfgs, cfg)
		}
		got := assertBatchMatches(t, prog, w.Setup, cfgs, 0)
		if got[0].Mispredicts == got[1].Mispredicts && got[1].Mispredicts == got[2].Mispredicts {
			t.Errorf("hybrid, bimodal, and gshare mispredict alike (%d): the batch does not exercise distinct predictors", got[0].Mispredicts)
		}
	})

	t.Run("GenuineTrap", func(t *testing.T) {
		prog := compileSource(t, "void main() {\n  int z = 0;\n  print(7 / z);\n}", isa.AMD64, compiler.O0)
		cfgs := []cpu.Config{cpu.Core2, cpu.CoreI7}
		if _, err := cpu.SimulateMany(prog, nil, cfgs, 1_000_000); err == nil {
			t.Fatal("division-by-zero trap accepted as a truncated batch measurement")
		}
		for _, cfg := range cfgs {
			if _, err := cpu.Simulate(prog, nil, cfg, 1_000_000); err == nil {
				t.Fatalf("%s: division-by-zero trap accepted", cfg.Name)
			}
		}
	})

	t.Run("Rejections", func(t *testing.T) {
		prog := compileWorkload(t, w, isa.X86, compiler.O2)
		// Core 2 is amd64: a batch mixing ISAs names it.
		_, err := cpu.SimulateMany(prog, w.Setup, []cpu.Config{cpu.Pentium4_3000, cpu.Core2}, 0)
		if err == nil || !strings.Contains(err.Error(), cpu.Core2.Name) {
			t.Errorf("mixed-ISA batch: got %v, want an error naming %q", err, cpu.Core2.Name)
		}
		// An out-of-order machine on the EPIC ISA is an EPIC/ISA mismatch.
		ia := compileWorkload(t, w, isa.IA64, compiler.O2)
		bad := cpu.Itanium2
		bad.Name, bad.EPIC, bad.Width = "OoO on IA64", false, 2
		_, err = cpu.SimulateMany(ia, w.Setup, []cpu.Config{cpu.Itanium2, bad}, 0)
		if err == nil || !strings.Contains(err.Error(), bad.Name) {
			t.Errorf("EPIC/ISA mismatch: got %v, want an error naming %q", err, bad.Name)
		}
	})
}

// assertBatchMatches requires SimulateMany's results to serialize exactly
// like per-config Simulate results, and returns the batch.
func assertBatchMatches(t *testing.T, prog *isa.Program, setup func(*vm.VM) error, cfgs []cpu.Config, maxInstrs uint64) []cpu.Result {
	t.Helper()
	batch, err := cpu.SimulateMany(prog, setup, cfgs, maxInstrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(cfgs) {
		t.Fatalf("batch returned %d results for %d configs", len(batch), len(cfgs))
	}
	for i, cfg := range cfgs {
		one, err := cpu.Simulate(prog, setup, cfg, maxInstrs)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		want, _ := json.Marshal(one)
		got, _ := json.Marshal(batch[i])
		if string(got) != string(want) {
			t.Errorf("config %d (%s): batched result differs:\nbatch  %s\nsingle %s", i, cfg.Name, got, want)
		}
	}
	return batch
}

func compileWorkload(t testing.TB, w *workloads.Workload, target *isa.Desc, level compiler.OptLevel) *isa.Program {
	t.Helper()
	cp, err := hlc.Check(mustParse(t, w))
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	prog, err := compiler.Compile(cp, target, level)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return prog
}

func compileSource(t *testing.T, src string, target *isa.Desc, level compiler.OptLevel) *isa.Program {
	t.Helper()
	prog, err := compiler.Compile(hlc.MustCheck(src), target, level)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
