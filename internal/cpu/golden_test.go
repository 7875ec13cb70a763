package cpu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/workloads"
)

// The digests below are SHA-256 sums of JSON-encoded []cpu.Summary lists.
// They were recorded with the per-event fan-out simulator that preceded
// block fan-out and shared predictors, and pin every cycle, cache, and
// branch count of the timing models against that reference: a batched
// path whose results merely agree with its own one-config call cannot
// catch a regression that both share.
const (
	// goldenTableIIIQuick: every Table III machine (machine-major) × every
	// quick-suite workload at -O2, each bounded by simBudget.
	goldenTableIIIQuick = "80808f528349fec3c47193f47924cadf7fa00f4a3a5dfa2a8fee2e9c6bcc07eb"
	// goldenCalibration: the 48 calibration-preset points, in preset
	// order, on crc32/small at -O2, unbounded.
	goldenCalibration = "1f38f2c7680cc3487d528cc2568655cba48902f188dd056c49911c5da63e2ffa"
	// goldenShortProgram: boundaryConfigs on shortSrc at -O2, a program
	// that executes fewer instructions than one event block holds.
	goldenShortProgram = "c35a764cba100add32ac04655c3b0f7fb7b7e63dbd3756c4a7ea7cda6cba82a0"
)

// goldenBoundaries maps an instruction budget to the digest of
// boundaryConfigs on crc32/small at -O2 truncated at that budget. The
// budgets straddle the event block size (see TestSimulateManyMatchesSimulate).
var goldenBoundaries = map[uint64]string{
	1:      "e3a1d591c30a7860d8c65ac67441a89de3c120077c08baa0dd097e6cfeb6a300",
	255:    "46fd8fca6fdac6a846053df74f8321df26dbf06ab95a40768b1be1e761e39602",
	256:    "5a366c44d2bdc9d5deadf726bdda687738eb43cc954251081e6f7b435770ba23",
	257:    "f942f040a4ee0d4f136d53f55bb6ccf6265c4698fa555129e55ed50285395dcd",
	50_001: "dfbdfbd8cbac26fb52c9be4a3e223977b787a7bb9908508d0e5097506d2f1e4a",
}

// boundaryConfigs is a small mixed batch: the Fig. 10 core and two
// Table III amd64 machines.
var boundaryConfigs = []cpu.Config{cpu.Simulated2Wide(8), cpu.Core2, cpu.CoreI7}

const shortSrc = "void main() {\n  int s = 0;\n  for (int i = 0; i < 5; i++) { s += i * 3; }\n  print(s);\n}"

// TestSimulateGoldenSummaries checks the timing models against digests
// recorded on the reference simulator (see the constants above).
func TestSimulateGoldenSummaries(t *testing.T) {
	t.Run("TableIIIQuickO2", func(t *testing.T) {
		suite := experiments.Quick()
		var sums []cpu.Summary
		for _, m := range cpu.Machines {
			for _, w := range suite {
				prog := compileWorkload(t, w, m.ISA, compiler.O2)
				res, err := cpu.Simulate(prog, w.Setup, m, simBudget)
				if err != nil {
					t.Fatalf("%s on %s: %v", w.Name, m.Name, err)
				}
				sums = append(sums, res.Summary())
			}
		}
		checkDigest(t, sums, goldenTableIIIQuick)
	})

	t.Run("CalibrationCRC32O2", func(t *testing.T) {
		cfgs := calibrationConfigs(t)
		w := workloads.ByName("crc32/small")
		prog := compileWorkload(t, w, cfgs[0].ISA, compiler.O2)
		res, err := cpu.SimulateMany(prog, w.Setup, cfgs, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, summaries(res), goldenCalibration)
	})
}

// calibrationConfigs resolves the 48 points of the calibration preset.
func calibrationConfigs(t testing.TB) []cpu.Config {
	t.Helper()
	sw, err := explore.Calibration().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]cpu.Config, len(sw.Points))
	for i, pt := range sw.Points {
		cfgs[i] = pt.Config()
	}
	if len(cfgs) != 48 {
		t.Fatalf("calibration preset has %d points, want 48", len(cfgs))
	}
	return cfgs
}

func summaries(res []cpu.Result) []cpu.Summary {
	out := make([]cpu.Summary, len(res))
	for i, r := range res {
		out[i] = r.Summary()
	}
	return out
}

// checkDigest requires the SHA-256 of sums' JSON encoding to equal want.
func checkDigest(t *testing.T, sums []cpu.Summary, want string) {
	t.Helper()
	b, err := json.Marshal(sums)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("summary digest %s, want %s", got, want)
	}
}
