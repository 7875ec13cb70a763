package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The layer pass calls each layer's public functions directly, one call
// at a time on one goroutine, over the suite's programs, and times every
// call. It produces the per-layer metrics that the pipeline's own cache
// and fan-out would blur.

// isas are the compilation targets, in the experiments' order.
var isas = []*isa.Desc{isa.X86, isa.AMD64, isa.IA64}

// Fixed programs of the micro-measurements, independent of the suite.
const (
	vmProgram     = "crc32/small" // interpreter throughput
	streamProgram = "qsort/large" // recorded address and branch stream
)

const (
	vmBudget      = 20_000_000 // instructions per interpreter trial
	vmTrials      = 3
	streamCap     = 1 << 20 // events kept per recorded stream
	replayTrials  = 5
	hookedMaxDyn  = 200_000_000
	simulatedL1KB = 8 // Fig. 10's smallest L1, the calibration sweep's base
)

// layerResult is the layer pass's output: per-layer metrics, the values
// among them that must repeat exactly, and per-call timings by call kind.
type layerResult struct {
	metrics map[string]float64
	exact   map[string]float64
	calls   map[string][]float64
}

// span times fn under a span named name and records the duration under
// kind.
func (lr *layerResult) span(ctx context.Context, tr *telemetry.Tracer, kind, name string, fn func() error) (float64, error) {
	_, sp := tr.Start(ctx, "layer."+kind)
	sp.SetAttr("call", name)
	start := time.Now()
	err := fn()
	sec := time.Since(start).Seconds()
	sp.End()
	lr.calls[kind] = append(lr.calls[kind], sec)
	return sec, err
}

func staticInstrs(p *isa.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// machines are the simulated configurations: Table III plus Fig. 10's
// 2-wide out-of-order core.
func machines() []cpu.Config {
	return append(append([]cpu.Config(nil), cpu.Machines...), cpu.Simulated2Wide(simulatedL1KB))
}

// runLayers runs the layer pass over ws with clone seed seed.
func runLayers(ctx context.Context, ws []*workloads.Workload, seed int64, tr *telemetry.Tracer) (*layerResult, error) {
	lr := &layerResult{metrics: map[string]float64{}, exact: map[string]float64{}, calls: map[string][]float64{}}
	ctx, root := tr.Start(ctx, "layers")
	defer root.End()

	var (
		levelSec                          [4]float64
		compiles, origStatic, cloneStatic int
		hlcSec, profSec, synthSec         float64
		profDyn, calib                    uint64
		oooSec, epicSec                   float64
		oooInstrs, epicInstrs             uint64
		oooSims, epicSims                 int
		simInstrs, simCycles              uint64
	)
	compileAll := func(cp *hlc.CheckedProgram, name string) (map[*isa.Desc][]*isa.Program, error) {
		out := map[*isa.Desc][]*isa.Program{}
		for _, t := range isas {
			for _, l := range compiler.Levels {
				var prog *isa.Program
				sec, err := lr.span(ctx, tr, "compile", fmt.Sprintf("%s %s %s", name, t.Name, l), func() (err error) {
					prog, err = compiler.Compile(cp, t, l)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("compile %s for %s at %s: %w", name, t.Name, l, err)
				}
				levelSec[l] += sec
				compiles++
				out[t] = append(out[t], prog)
			}
		}
		return out, nil
	}

	for _, w := range ws {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var cp *hlc.CheckedProgram
		sec, err := lr.span(ctx, tr, "parse_check", w.Name, func() error {
			prog, err := hlc.Parse(w.Source)
			if err != nil {
				return err
			}
			cp, err = hlc.Check(prog)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", w.Name, err)
		}
		hlcSec += sec
		orig, err := compileAll(cp, w.Name)
		if err != nil {
			return nil, err
		}
		origStatic += staticInstrs(orig[isa.AMD64][compiler.O0])

		var prof *profile.Profile
		sec, err = lr.span(ctx, tr, "profile", w.Name, func() (err error) {
			prof, err = profile.Collect(orig[isa.AMD64][compiler.O0], w.Setup, w.Name, profile.Options{Cache: profile.DefaultCache})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", w.Name, err)
		}
		profSec += sec
		profDyn += prof.TotalDyn

		var clone *hlc.Program
		before := vm.ExecutedInstrs()
		sec, err = lr.span(ctx, tr, "synthesize", w.Name, func() (err error) {
			clone, _, err = core.Synthesize(prof, core.Config{Seed: seed})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("synthesize %s: %w", w.Name, err)
		}
		synthSec += sec
		calib += vm.ExecutedInstrs() - before

		var ccp *hlc.CheckedProgram
		sec, err = lr.span(ctx, tr, "parse_check", w.Name+" clone", func() (err error) {
			ccp, err = hlc.Check(clone)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("check %s clone: %w", w.Name, err)
		}
		hlcSec += sec
		syn, err := compileAll(ccp, w.Name+" clone")
		if err != nil {
			return nil, err
		}
		cloneStatic += staticInstrs(syn[isa.AMD64][compiler.O0])

		for _, m := range machines() {
			for _, side := range []struct {
				prog  *isa.Program
				setup func(*vm.VM) error
				name  string
			}{
				{orig[m.ISA][compiler.O2], w.Setup, w.Name},
				{syn[m.ISA][compiler.O2], nil, w.Name + " clone"},
			} {
				var res cpu.Result
				kind := "simulate.ooo"
				if m.EPIC {
					kind = "simulate.epic"
				}
				sec, err := lr.span(ctx, tr, kind, side.name+" on "+m.Name, func() (err error) {
					res, err = cpu.Simulate(side.prog, side.setup, m, 0)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("simulate %s on %s: %w", side.name, m.Name, err)
				}
				simInstrs += res.Instrs
				simCycles += res.Cycles
				if m.EPIC {
					epicSec += sec
					epicInstrs += res.Instrs
					epicSims++
				} else {
					oooSec += sec
					oooInstrs += res.Instrs
					oooSims++
				}
			}
		}
	}

	for l, sec := range levelSec {
		lr.metrics[fmt.Sprintf("compiler.O%d_s", l)] = sec
	}
	lr.metrics["hlc.parse_check_s"] = hlcSec
	lr.metrics["profile.s"] = profSec
	lr.metrics["profile.mips"] = div(float64(profDyn)/1e6, profSec)
	lr.metrics["core.synthesize_s"] = synthSec
	lr.metrics["cpu.ooo_ns_per_instr"] = div(oooSec*1e9, float64(oooInstrs))
	lr.metrics["cpu.epic_ns_per_instr"] = div(epicSec*1e9, float64(epicInstrs))
	lr.exact["compiler.compiles"] = float64(compiles)
	lr.exact["compiler.orig_static_instrs"] = float64(origStatic)
	lr.exact["compiler.clone_static_instrs"] = float64(cloneStatic)
	lr.exact["core.calib_vm_instrs"] = float64(calib)
	lr.exact["cpu.ooo_sims"] = float64(oooSims)
	lr.exact["cpu.epic_sims"] = float64(epicSims)
	lr.exact["cpu.sim_instrs"] = float64(simInstrs)
	lr.exact["cpu.sim_cycles"] = float64(simCycles)

	if err := lr.interpreter(ctx, tr); err != nil {
		return nil, err
	}
	if err := lr.replay(ctx, tr); err != nil {
		return nil, err
	}
	for k, v := range lr.exact {
		lr.metrics[k] = v
	}
	return lr, nil
}

// div divides, reading 0 when there is nothing to divide by.
func div(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// compileFixed compiles one named workload at amd64 -O0.
func compileFixed(name string) (*workloads.Workload, *isa.Program, error) {
	w := workloads.ByName(name)
	if w == nil {
		return nil, nil, fmt.Errorf("workload %s not found", name)
	}
	prog, err := hlc.Parse(w.Source)
	if err != nil {
		return nil, nil, err
	}
	cp, err := hlc.Check(prog)
	if err != nil {
		return nil, nil, err
	}
	p, err := compiler.Compile(cp, isa.AMD64, compiler.O0)
	return w, p, err
}

// interpreter measures the VM's fast (no hook) and hooked paths on a fixed
// program: the median of a few trials, each re-running the program until
// vmBudget instructions have been interpreted.
func (lr *layerResult) interpreter(ctx context.Context, tr *telemetry.Tracer) error {
	w, prog, err := compileFixed(vmProgram)
	if err != nil {
		return err
	}
	var events uint64
	for _, c := range []struct {
		metric string
		hook   vm.Hook
	}{
		{"vm.fast_mips", nil},
		{"vm.hooked_mips", func(*vm.Event) { events++ }},
	} {
		var mips []float64
		for i := 0; i < vmTrials; i++ {
			var dyn uint64
			sec, err := lr.span(ctx, tr, "vm", c.metric, func() error {
				for dyn < vmBudget {
					m := vm.New(prog)
					if err := w.Setup(m); err != nil {
						return err
					}
					res, err := m.Run(vm.Config{MaxInstrs: vmBudget, Hook: c.hook})
					var trap *vm.Trap
					if err != nil && !(errors.As(err, &trap) && trap.Reason == vm.TrapBudgetExhausted) {
						return err
					}
					dyn += res.DynInstrs
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("%s on %s: %w", c.metric, vmProgram, err)
			}
			mips = append(mips, div(float64(dyn)/1e6, sec))
		}
		lr.metrics[c.metric] = median(mips)
	}
	if events == 0 {
		return fmt.Errorf("hooked interpreter delivered no events")
	}
	return nil
}

// replay records a fixed program's data-address and branch streams once,
// then times replaying them through a single cache, the Figs. 7/8 cache
// sweep, and the default hybrid predictor.
func (lr *layerResult) replay(ctx context.Context, tr *telemetry.Tracer) error {
	w, prog, err := compileFixed(streamProgram)
	if err != nil {
		return err
	}
	type branch struct {
		pc    uint64
		taken bool
	}
	addrs := make([]uint64, 0, streamCap)
	branches := make([]branch, 0, streamCap)
	m := vm.New(prog)
	if err := w.Setup(m); err != nil {
		return err
	}
	_, err = m.Run(vm.Config{MaxInstrs: hookedMaxDyn, Hook: func(ev *vm.Event) {
		if ev.IsMem && len(addrs) < streamCap {
			addrs = append(addrs, ev.Addr)
		}
		if ev.Instr.Op == isa.BR && len(branches) < streamCap {
			pc := uint64(ev.Func)<<40 | uint64(ev.Block)<<16 | uint64(ev.Index)
			branches = append(branches, branch{pc, ev.Taken})
		}
	}})
	if err != nil {
		return fmt.Errorf("recording %s: %w", streamProgram, err)
	}
	if len(addrs) == 0 || len(branches) == 0 {
		return fmt.Errorf("recording %s: %d addresses, %d branches", streamProgram, len(addrs), len(branches))
	}

	timePer := func(metric string, n int, fn func()) {
		var ns []float64
		for i := 0; i < replayTrials; i++ {
			sec, _ := lr.span(ctx, tr, "replay", metric, func() error { fn(); return nil })
			ns = append(ns, sec*1e9/float64(n))
		}
		lr.metrics[metric] = median(ns)
	}
	var sink int
	timePer("cache.ns_per_access", len(addrs), func() {
		c := cache.New(profile.DefaultCache)
		for _, a := range addrs {
			if c.Access(a) {
				sink++
			}
		}
	})
	timePer("cache.sweep_ns_per_access", len(addrs), func() {
		ms := cache.NewMultiSim(cache.SweepConfigs())
		for _, a := range addrs {
			ms.Access(a)
		}
	})
	timePer("bpred.ns_per_branch", len(branches), func() {
		p := bpred.DefaultHybrid()
		for _, b := range branches {
			if p.Predict(b.pc) == b.taken {
				sink++
			}
			p.Update(b.pc, b.taken)
		}
	})
	if sink == 0 {
		return fmt.Errorf("replay of %s produced no hits and no correct predictions", streamProgram)
	}
	return nil
}
