// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V): each ExperimentX function runs the corresponding
// measurement over the workload suite and its synthetic clones and returns
// printable rows. `cmd/synth experiments` renders them; bench_test.go wraps
// the suite in benchmarks; EXPERIMENTS.md records paper-vs-measured values.
//
// All measurement plumbing routes through internal/pipeline: a Runner
// submits declarative jobs (workload × ISA × level points) to a shared
// pipeline whose artifact cache computes each compile, profile, clone,
// characterization (Figs. 4–9) and simulation (Figs. 10/11) once across
// every experiment, and whose worker pool fans the jobs out.
// The package-level ExperimentX functions run on a process-wide default
// Runner seeded with CloneSeed.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// CloneSeed is the fixed seed used for every clone in the experiments, so
// results are reproducible run to run.
const CloneSeed = 20100321 // IISWC 2010 paper vintage

// Suite selection: Full is every workload/input pair of Fig. 4; Quick is a
// representative subset (the small inputs plus the single-variant
// benchmarks) used by the per-machine sweeps where the full cross product
// would dominate test time.
func Full() []*workloads.Workload { return workloads.All() }

// Tiny returns the three-workload smoke suite used by fast CI paths.
func Tiny() []*workloads.Workload {
	var out []*workloads.Workload
	for _, n := range []string{"crc32/small", "dijkstra/small", "fft/small1"} {
		if w := workloads.ByName(n); w != nil {
			out = append(out, w)
		}
	}
	return out
}

// Suite resolves a suite name — tiny, quick, or full — to its workload
// set. It is the single resolution path shared by the CLI, the HTTP
// service, and the exploration engine.
func Suite(name string) ([]*workloads.Workload, error) {
	switch name {
	case "tiny":
		return Tiny(), nil
	case "quick":
		return Quick(), nil
	case "full":
		return Full(), nil
	}
	return nil, fmt.Errorf("unknown suite %q (want tiny, quick, or full)", name)
}

// Quick returns the representative subset.
func Quick() []*workloads.Workload {
	names := []string{
		"adpcm/small1", "basicmath/small", "bitcount/small", "crc32/small",
		"dijkstra/small", "fft/small1", "gsm/small1", "jpeg/large1",
		"patricia/small", "qsort/large", "sha/small", "stringsearch/small",
		"susan/small2",
	}
	var out []*workloads.Workload
	for _, n := range names {
		if w := workloads.ByName(n); w != nil {
			out = append(out, w)
		}
	}
	return out
}

// Runner executes the paper's experiments through a pipeline. Every
// measurement is a job submission: the pipeline owns compilation,
// profiling, synthesis, caching, and fan-out, and the Runner only
// aggregates results (in suite order, so output is deterministic for any
// worker count).
type Runner struct {
	P *pipeline.Pipeline
}

// NewRunner wraps a pipeline in a Runner.
func NewRunner(p *pipeline.Pipeline) *Runner { return &Runner{P: p} }

var (
	defaultOnce   sync.Once
	defaultRunner *Runner
)

// DefaultRunner returns the process-wide Runner used by the package-level
// experiment functions: CloneSeed, paper-default profiling, GOMAXPROCS
// workers, and one shared artifact cache for the life of the process.
func DefaultRunner() *Runner {
	defaultOnce.Do(func() {
		defaultRunner = NewRunner(pipeline.New(pipeline.Options{Seed: CloneSeed}))
	})
	return defaultRunner
}

// sides is one workload's Characterize artifacts at one level: the
// original's and the clone's.
type sides struct{ orig, syn profile.Characterization }

// characterize runs the Characterize stage for the original and the clone
// of every workload at every level on amd64, the measurement behind Figs.
// 4–9, and returns the results indexed [workload][level].
func (r *Runner) characterize(ctx context.Context, suite []*workloads.Workload, levels ...compiler.OptLevel) ([][]sides, error) {
	return pipeline.Map(ctx, r.P, suite, func(ctx context.Context, w *workloads.Workload) ([]sides, error) {
		out := make([]sides, len(levels))
		for i, level := range levels {
			var err error
			if out[i].orig, err = r.P.Characterize(ctx, w, isa.AMD64, level, false); err != nil {
				return nil, err
			}
			if out[i].syn, err = r.P.Characterize(ctx, w, isa.AMD64, level, true); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
}

// background is the context for the package-level wrappers.
func background() context.Context { return context.Background() }
