package pipeline

import (
	"context"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Characterize runs the Characterize stage: execute the workload
// (clone=false) or its synthetic clone (clone=true), compiled at
// (target, level), to completion under one hook that records everything
// Figs. 4–9 compare — instruction count and class mix, the data-cache
// sweep, and hybrid branch-prediction accuracy. The artifact holds raw
// counts, keyed like the compile (plus the clone key for a clone, as
// simKey does), so a warm store reruns every figure without
// interpreting anything.
func (p *Pipeline) Characterize(ctx context.Context, w *workloads.Workload, target *isa.Desc, level compiler.OptLevel, clone bool) (profile.Characterization, error) {
	if err := ctx.Err(); err != nil {
		return profile.Characterization{}, err
	}
	k := Key{Stage: StageCharacterize, Workload: w.Name, Src: srcID(w)}
	if clone {
		k = p.cloneKey(StageCharacterize, w)
	}
	k.ISA, k.Level = target.Name, level
	v, err := p.cache.do(ctx, k, codecCharacterize, func(ctx context.Context) (any, error) {
		prog, setup, err := p.program(ctx, w, target, level, clone)
		if err != nil {
			return nil, err
		}
		c, err := characterize(prog, setup)
		if err != nil {
			return nil, &StageError{Stage: StageCharacterize, Workload: w.Name,
				ISA: target.Name, Level: level, Clone: clone, Err: err}
		}
		return c, nil
	})
	if err != nil {
		return profile.Characterization{}, err
	}
	return v.(profile.Characterization), nil
}

// characterize interprets prog once, feeding every executed instruction
// to the mix counters, every data access to the cache sweep, and every
// conditional branch to the default hybrid predictor.
func characterize(prog *isa.Program, setup func(*vm.VM) error) (profile.Characterization, error) {
	var c profile.Characterization
	m := vm.New(prog)
	if setup != nil {
		if err := setup(m); err != nil {
			return c, err
		}
	}
	sweep := cache.NewMultiSim(cache.SweepConfigs())
	meter := &bpred.Meter{P: bpred.DefaultHybrid()}
	res, err := m.Run(vm.Config{MaxInstrs: characterizeBudget, Hook: func(ev *vm.Event) {
		c.Mix[ev.Instr.Class()]++
		if ev.IsMem {
			sweep.Access(ev.Addr)
		}
		if ev.Instr.Op == isa.BR {
			meter.Observe(uint64(ev.Func)<<24^uint64(ev.Block)<<10^uint64(ev.Index), ev.Taken)
		}
	}})
	if err != nil {
		return c, err
	}
	c.Instrs, c.Branch = res.DynInstrs, meter.S
	for _, cc := range sweep.Caches {
		c.Cache = append(c.Cache, cc.Stats)
	}
	return c, nil
}
