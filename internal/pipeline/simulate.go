package pipeline

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// This file is the Simulate stage: timing simulation of a compiled
// program — original or clone — on one machine configuration, as a
// first-class cached pipeline artifact. The key carries the machine
// config's content fingerprint (cpu.Config.Fingerprint) alongside the
// usual workload/ISA/level coordinates, so a design-space sweep that
// revisits a (workload, level, config) point — a warm `synth explore`
// rerun, a cluster worker re-leasing a shard, an overlapping sweep —
// recomputes nothing.

// simKey builds the Simulate-stage cache key. Clone simulations extend
// the clone-artifact key (seed, profiling point, target-dyn, profiling
// bound) so that clones synthesized under different options never share
// simulation artifacts; original simulations are keyed by the compile
// point alone. The simulation bound rides inside Sim, not MaxInstrs —
// the MaxInstrs field means "profiling bound" on clone-derived keys and
// must keep meaning that.
func (p *Pipeline) simKey(w *workloads.Workload, target *isa.Desc, level compiler.OptLevel, cfg cpu.Config, clone bool, maxInstrs uint64) Key {
	var k Key
	if clone {
		k = p.cloneKey(StageSimulate, w)
	} else {
		k = Key{Stage: StageSimulate, Workload: w.Name, Src: srcID(w)}
	}
	k.ISA, k.Level = target.Name, level
	k.Sim = fmt.Sprintf("%s:%d", cfg.Fingerprint(), maxInstrs)
	return k
}

// Simulate runs the Simulate stage: execute the workload (clone=false)
// or its synthetic clone (clone=true), compiled at (target, level), on
// the machine configuration cfg, bounded by maxInstrs dynamic
// instructions (0 = unbounded). Results are cached and persisted under
// the config's fingerprint. It is SimulateMany with one configuration.
func (p *Pipeline) Simulate(ctx context.Context, w *workloads.Workload, target *isa.Desc, level compiler.OptLevel, cfg cpu.Config, clone bool, maxInstrs uint64) (cpu.Summary, error) {
	sums, err := p.SimulateMany(ctx, w, target, level, []cpu.Config{cfg}, clone, maxInstrs)
	if err != nil {
		return cpu.Summary{}, err
	}
	return sums[0], nil
}

// SimulateMany runs the Simulate stage for one program — the workload or
// its clone at (target, level) — on every configuration in cfgs, and
// returns the summaries in config order. Every configuration is its own
// artifact, resolved, counted, traced, and persisted exactly as Simulate
// resolves it; the configurations that miss are computed together, from
// one compile and one interpretation of the program (cpu.SimulateMany).
// Every configuration is validated against target before any work, so an
// invalid one fails the call without caching anything.
func (p *Pipeline) SimulateMany(ctx context.Context, w *workloads.Workload, target *isa.Desc, level compiler.OptLevel, cfgs []cpu.Config, clone bool, maxInstrs uint64) ([]cpu.Summary, error) {
	fail := func(err error) error {
		return &StageError{Stage: StageSimulate, Workload: w.Name,
			ISA: target.Name, Level: level, Clone: clone, Err: err}
	}
	if err := ctx.Err(); err != nil {
		return nil, fail(err)
	}
	keys := make([]Key, len(cfgs))
	for i, cfg := range cfgs {
		if err := cfg.ValidateFor(target); err != nil {
			return nil, fail(err)
		}
		keys[i] = p.simKey(w, target, level, cfg, clone, maxInstrs)
	}
	vs, err := p.cache.doMany(ctx, keys, codecSim, func(ctx context.Context, idx []int) ([]any, error) {
		prog, setup, err := p.program(ctx, w, target, level, clone)
		if err != nil {
			return nil, err
		}
		batch := make([]cpu.Config, len(idx))
		for j, i := range idx {
			batch[j] = cfgs[i]
		}
		res, err := cpu.SimulateMany(prog, setup, batch, maxInstrs)
		if err != nil {
			return nil, fail(err)
		}
		out := make([]any, len(res))
		for j, r := range res {
			out[j] = r.Summary()
		}
		return out, nil
	})
	if err != nil {
		var se *StageError
		if !errors.As(err, &se) {
			err = fail(err)
		}
		return nil, err
	}
	sums := make([]cpu.Summary, len(vs))
	for i, v := range vs {
		sums[i] = v.(cpu.Summary)
	}
	return sums, nil
}

// SimPair holds the original's and the clone's simulation summaries at
// one (workload, level, machine configuration) design point.
type SimPair struct {
	// Orig and Syn are the original's and clone's summaries.
	Orig cpu.Summary `json:"orig"`
	Syn  cpu.Summary `json:"syn"`
}

// SimKeys returns the keys of the two simulation artifacts one
// SimulateCells cell persists (original first, clone second), mirroring
// Simulate's key construction the way PairKeys mirrors PairAt's. The
// cluster coordinator probes these (on top of PairKeys) to deduplicate
// exploration jobs against already-stored sweeps;
// TestSimKeysMatchStoredDigests guards against drift.
func (p *Pipeline) SimKeys(w *workloads.Workload, target *isa.Desc, level compiler.OptLevel, cfg cpu.Config, maxInstrs uint64) []Key {
	return []Key{
		p.simKey(w, target, level, cfg, false, maxInstrs),
		p.simKey(w, target, level, cfg, true, maxInstrs),
	}
}

// SimCell is one design point of a simulation sweep: a workload at an
// optimization level on a machine configuration (whose ISA is the
// compile target).
type SimCell struct {
	Workload *workloads.Workload
	Level    compiler.OptLevel
	Config   cpu.Config
}

// SimulateCells simulates the original and the clone at every cell and
// returns the pairs in cell order. Cells that share a program — the same
// workload, level, ISA, and side — are batched into SimulateMany calls,
// so each program is interpreted once per batch rather than once per
// configuration; the batches run on the worker pool (see planSims). Each
// simulation is still its own cached artifact, so the results and the
// store are identical to per-cell Simulate calls, for any worker
// count.
func (p *Pipeline) SimulateCells(ctx context.Context, cells []SimCell, maxInstrs uint64) ([]SimPair, error) {
	jobs := planSims(cells, p.Workers())
	sums, err := Map(ctx, p, jobs, func(ctx context.Context, j simJob) ([]cpu.Summary, error) {
		c := cells[j.cells[0]]
		cfgs := make([]cpu.Config, len(j.cells))
		for k, ci := range j.cells {
			cfgs[k] = cells[ci].Config
		}
		return p.SimulateMany(ctx, c.Workload, c.Config.ISA, c.Level, cfgs, j.clone, maxInstrs)
	})
	if err != nil {
		return nil, err
	}
	pairs := make([]SimPair, len(cells))
	for ji, j := range jobs {
		for k, ci := range j.cells {
			if j.clone {
				pairs[ci].Syn = sums[ji][k]
			} else {
				pairs[ci].Orig = sums[ji][k]
			}
		}
	}
	return pairs, nil
}

// simJob is one SimulateMany call of a planned sweep: one side (original
// or clone) of the program the listed cells (indexes, in cell order)
// share.
type simJob struct {
	clone bool
	cells []int
}

// planSims groups cells into one batch per program and side — in order
// of first appearance, the original's batch before the clone's — and,
// when there are fewer batches than workers, splits the largest batches
// into contiguous chunks until there are min(workers, simulations) jobs,
// so a narrow sweep (one workload at one level) still occupies the whole
// pool. Each chunk re-interprets its program once, so the split trades a
// few extra interpretations for parallelism only where the pool would
// otherwise idle. The plan depends on the cells and the worker count
// alone.
func planSims(cells []SimCell, workers int) []simJob {
	type group struct {
		w     *workloads.Workload
		level compiler.OptLevel
		isa   *isa.Desc
	}
	index := map[group]int{}
	var batches [][]int
	for ci, c := range cells {
		g := group{c.Workload, c.Level, c.Config.ISA}
		bi, ok := index[g]
		if !ok {
			bi = len(batches)
			index[g] = bi
			batches = append(batches, nil)
		}
		batches[bi] = append(batches[bi], ci)
	}
	// Every program batch runs twice: once for each side.
	parts := make([]int, 2*len(batches))
	for i := range parts {
		parts[i] = 1
	}
	size := func(i int) int { return len(batches[i/2]) }
	target := min(workers, 2*len(cells))
	for n := len(parts); n < target; n++ {
		// Split the batch with the largest chunks (the first on ties).
		best := 0
		for i := range parts {
			if size(i)*parts[best] > size(best)*parts[i] {
				best = i
			}
		}
		parts[best]++
	}
	var jobs []simJob
	for i, n := range parts {
		b := batches[i/2]
		for k := 0; k < n; k++ {
			jobs = append(jobs, simJob{clone: i%2 == 1, cells: b[k*len(b)/n : (k+1)*len(b)/n]})
		}
	}
	return jobs
}
