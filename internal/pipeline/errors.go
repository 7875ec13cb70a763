package pipeline

import (
	"fmt"

	"repro/internal/compiler"
)

// Stage identifies one step of the synthesis framework. The stages mirror
// the paper's per-workload flow: parse and type-check the source, compile
// it for a target/level, profile the low-optimization binary, synthesize
// the clone, and validate that the clone is itself a well-formed,
// executable benchmark.
type Stage int

// Pipeline stages, in execution order. Later additions (Simulate,
// Generate, then Characterize) are appended after Validate regardless of
// where they sit in the dataflow: the order is part of the
// CacheStats.Computed indexing contract, and Key.Canonical prints the
// stage number, so appending keeps every stored digest valid.
const (
	StageParse Stage = iota
	StageCheck
	StageCompile
	StageProfile
	StageSynthesize
	StageValidate
	StageSimulate
	StageGenerate
	StageCharacterize
)

var stageNames = [...]string{
	"parse", "check", "compile", "profile", "synthesize", "validate", "simulate", "generate",
	"characterize",
}

// NumStages is the number of pipeline stages; CacheStats.Computed is
// indexed by Stage.
const NumStages = len(stageNames)

// String returns the stage's lowercase name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// StageError ties a failure to the pipeline coordinates that produced it,
// so a fan-out over hundreds of (workload, ISA, level) jobs reports exactly
// which stage of which job broke instead of a bare wrapped string.
type StageError struct {
	Stage    Stage
	Workload string
	ISA      string            // target ISA name, if the stage has one
	Level    compiler.OptLevel // optimization level, if the stage has one
	Clone    bool              // the failing artifact was the synthetic clone
	Err      error
}

// Error renders the coordinates followed by the underlying cause.
func (e *StageError) Error() string {
	what := e.Workload
	if e.Clone {
		what += " (clone)"
	}
	if e.ISA != "" {
		what = fmt.Sprintf("%s [%s %v]", what, e.ISA, e.Level)
	}
	return fmt.Sprintf("pipeline: %v %s: %v", e.Stage, what, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }
