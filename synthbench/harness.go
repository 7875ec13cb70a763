package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/hlc"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The benchmark's workloads.
const (
	quickCold  = "quick-cold"
	quickWarm  = "quick-warm"
	exploreCal = "explore-calibration"
)

// workloadWhy records why each workload was chosen.
var workloadWhy = map[string]string{
	quickCold:  "every quick-suite experiment into an empty store: compile, profile, synthesis, store writes and simulation all do real work",
	quickWarm:  "the same experiments on a store that set-up filled: nothing is compiled or synthesized; store reads, the figures' VM passes and simulation dominate",
	exploreCal: "the Fig. 10 calibration sweep on prebuilt O2 programs: many out-of-order simulations over few programs, no compiler and no EPIC model",
}

var workloadNames = []string{quickCold, quickWarm, exploreCal}

// setupReps is how many times the set-up is made before each timed pass;
// set-up time is reported from their median. A set-up takes milliseconds
// on the quick suite, so one sample is mostly noise.
const setupReps = 101

// op is one operation of a timed pass: a figure call, or an explore sweep
// standing for its cells.
type op struct {
	name  string
	sec   float64
	text  string // rendered output, compared across passes and runs
	err   error
	count int // operations it stands for: 1 per figure, 1 per explore cell
	// acc holds the accuracy figures the result carries, if any.
	acc map[string]float64
	// failed is set by the output checks.
	failed bool
}

// pass is one execution of a workload's timed part.
type pass struct {
	traced  bool
	wall    float64
	cpu     float64
	allocMB float64
	ops     []op
	// exact holds the values that must repeat exactly on every pass and
	// run of the same workload and seed: counts and accuracy figures.
	exact map[string]float64
	stats pipeline.CacheStats
	store storeStats // traced passes only
}

// harness runs one workload.
type harness struct {
	workload string
	suite    string
	ws       []*workloads.Workload
	seed     int64
	workers  int
	dir      string // this run's scratch directory

	fill   []op           // quick-warm: the figures rendered by the filling cold pass
	filled string         // quick-warm: the filled store
	tmpl   string         // explore-calibration: the store holding the prebuilt programs
	sweep  *explore.Sweep // explore-calibration: the resolved calibration sweep
}

// instance is the starting state of one timed pass: a pipeline over a
// store that holds exactly what the workload promises at its start.
type instance struct {
	dir     string
	owned   bool          // dir belongs to this instance and is removed with it
	backend *timedBackend // traced passes only
	p       *pipeline.Pipeline
	runner  *experiments.Runner // quick workloads
	sweep   *explore.Sweep      // explore-calibration
}

func (in *instance) close() {
	if in.owned {
		os.RemoveAll(in.dir)
	}
}

func (h *harness) pipelineOver(b store.Backend, tr *telemetry.Tracer) *pipeline.Pipeline {
	opts := pipeline.Options{Workers: h.workers, Seed: h.seed, Store: b}
	if tr != nil {
		opts.Tracer = tr
		opts.Metrics = telemetry.NewRegistry()
	}
	return pipeline.New(opts)
}

// prepare builds, once per run, what every timed pass starts from: the
// store that a cold pass filled, for quick-warm, and the store holding the
// prebuilt programs, for explore-calibration. Quick-cold needs nothing.
func (h *harness) prepare(ctx context.Context) error {
	switch h.workload {
	case quickWarm:
		h.filled = filepath.Join(h.dir, "filled")
		st, err := store.Open(h.filled)
		if err != nil {
			return err
		}
		h.fill = runQuick(ctx, experiments.NewRunner(h.pipelineOver(st, nil)), h.ws, nil)
		for _, o := range h.fill {
			if o.err != nil {
				return fmt.Errorf("filling the store: %s: %w", o.name, o.err)
			}
		}
	case exploreCal:
		sw, err := h.resolveSweep()
		if err != nil {
			return err
		}
		h.sweep = sw
		h.tmpl = filepath.Join(h.dir, "template")
		st, err := store.Open(h.tmpl)
		if err != nil {
			return err
		}
		p := h.pipelineOver(st, nil)
		type job struct {
			w      *workloads.Workload
			target *isa.Desc
			level  compiler.OptLevel
		}
		var jobs []job
		targets := map[*isa.Desc]bool{}
		for _, pt := range sw.Points {
			targets[pt.Config().ISA] = true
		}
		for _, w := range sw.Workloads {
			for _, t := range isas {
				if !targets[t] {
					continue
				}
				for _, l := range sw.Levels {
					jobs = append(jobs, job{w, t, l})
				}
			}
		}
		return pipeline.ForEach(ctx, p, jobs, func(ctx context.Context, j job) error {
			_, err := p.PairAt(ctx, j.w, j.target, j.level)
			return err
		})
	}
	return nil
}

// setup builds one timed pass's starting state. The harness first lays
// out the store directory (a fresh empty one for quick-cold, the filled
// one for quick-warm, a fresh copy of the prebuilt programs for
// explore-calibration); that is not timed. The set-up proper is then made
// setupReps times, each timed from a freshly collected heap, and the last
// result kept: load the inputs
// (parse and type-check every source of the suite, so that a broken input
// stops the run before it is timed), open the store, and build the
// pipeline and the runner or the sweep.
func (h *harness) setup(tr *telemetry.Tracer) (*instance, []float64, error) {
	in := &instance{}
	switch h.workload {
	case quickCold, exploreCal:
		dir, err := os.MkdirTemp(h.dir, h.workload+"-")
		if err != nil {
			return nil, nil, err
		}
		in.dir, in.owned = dir, true
		if h.workload == exploreCal {
			if err := copyTree(h.tmpl, dir); err != nil {
				in.close()
				return nil, nil, err
			}
		}
	case quickWarm:
		in.dir = h.filled
	}
	var secs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // every repetition starts from the same heap
		start := time.Now()
		for _, w := range h.ws {
			prog, err := hlc.Parse(w.Source)
			if err == nil {
				_, err = hlc.Check(prog)
			}
			if err != nil {
				in.close()
				return nil, nil, fmt.Errorf("set-up: input %s: %w", w.Name, err)
			}
		}
		st, err := store.Open(in.dir)
		if err != nil {
			in.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		var b store.Backend = st
		if tr != nil {
			in.backend = newTimedBackend(st)
			b = in.backend
		}
		in.p = h.pipelineOver(b, tr)
		if h.workload == exploreCal {
			if in.sweep, err = h.resolveSweep(); err != nil {
				in.close()
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
		} else {
			in.runner = experiments.NewRunner(in.p)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return in, secs, nil
}

// resolveSweep resolves the calibration sweep over the harness's suite.
func (h *harness) resolveSweep() (*explore.Sweep, error) {
	spec := explore.Calibration()
	spec.Suite = h.suite
	return spec.Resolve()
}

// timed runs the workload's timed part once on in.
func (h *harness) timed(ctx context.Context, in *instance, tr *telemetry.Tracer) pass {
	runtime.GC() // start every pass from the same heap, not the last one's garbage
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	vm0 := vm.ExecutedInstrs()
	cpu0 := cpuSeconds()
	start := time.Now()

	ctx, span := tr.Start(ctx, h.workload)
	ps := pass{traced: tr != nil, exact: map[string]float64{}}
	switch h.workload {
	case quickCold, quickWarm:
		ps.ops = runQuick(ctx, in.runner, h.ws, tr)
	case exploreCal:
		ps.ops = runExplore(ctx, in.p, in.sweep, tr)
	}
	span.End()

	ps.wall = time.Since(start).Seconds()
	ps.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	ps.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	ps.stats = in.p.CacheStats()
	if in.backend != nil {
		ps.store = in.backend.stats()
	}

	ps.exact["vm.instrs"] = float64(vm.ExecutedInstrs() - vm0)
	ps.exact["pipeline.hits"] = float64(ps.stats.Hits)
	ps.exact["pipeline.disk_hits"] = float64(ps.stats.DiskHits)
	ps.exact["pipeline.misses"] = float64(ps.stats.Misses)
	for st := pipeline.Stage(0); int(st) < pipeline.NumStages; st++ {
		ps.exact["pipeline.computed."+st.String()] = float64(ps.stats.ComputedFor(st))
	}
	for _, o := range ps.ops {
		for k, v := range o.acc {
			ps.exact[k] = v
		}
	}
	if ps.traced {
		ps.exact["store.gets"] = float64(ps.store.Gets)
		ps.exact["store.puts"] = float64(ps.store.Puts)
	}
	return ps
}

// printable is what every experiment result implements.
type printable interface{ Print(io.Writer) }

// runQuick runs every quick-suite experiment, in the order the
// experiments command renders them, and keeps each figure's table.
func runQuick(ctx context.Context, r *experiments.Runner, ws []*workloads.Workload, tr *telemetry.Tracer) []op {
	steps := []struct {
		name string
		run  func(context.Context) (printable, error)
	}{
		{"table2", func(ctx context.Context) (printable, error) { return r.TableII(ctx, ws) }},
		{"fig4", func(ctx context.Context) (printable, error) { return r.Fig4(ctx, ws) }},
		{"fig5", func(ctx context.Context) (printable, error) { return r.Fig5(ctx, ws) }},
		{"fig6a", func(ctx context.Context) (printable, error) { return r.Fig6(ctx, ws, compiler.O0) }},
		{"fig6b", func(ctx context.Context) (printable, error) { return r.Fig6(ctx, ws, compiler.O2) }},
		{"fig7", func(ctx context.Context) (printable, error) { return r.FigCache(ctx, ws, compiler.O0) }},
		{"fig8", func(ctx context.Context) (printable, error) { return r.FigCache(ctx, ws, compiler.O2) }},
		{"fig9", func(ctx context.Context) (printable, error) { return r.Fig9(ctx, ws) }},
		{"fig10", func(ctx context.Context) (printable, error) { return r.Fig10(ctx, ws) }},
		{"fig11", func(ctx context.Context) (printable, error) { return r.Fig11(ctx, ws) }},
		{"obfuscation", func(ctx context.Context) (printable, error) { return r.Obfuscation(ctx, ws) }},
	}
	ops := make([]op, 0, len(steps))
	for _, s := range steps {
		sctx, span := tr.Start(ctx, "experiments."+s.name)
		start := time.Now()
		res, err := s.run(sctx)
		o := op{name: s.name, sec: time.Since(start).Seconds(), err: err, count: 1}
		span.End()
		if err == nil {
			var b strings.Builder
			res.Print(&b)
			o.text = b.String()
			o.acc = accuracyOf(res)
		}
		ops = append(ops, o)
	}
	return ops
}

// runExplore runs the calibration sweep as one operation per cell.
func runExplore(ctx context.Context, p *pipeline.Pipeline, sw *explore.Sweep, tr *telemetry.Tracer) []op {
	cells := len(sw.Points) * len(sw.Workloads) * len(sw.Levels)
	sctx, span := tr.Start(ctx, "explore.Run")
	start := time.Now()
	rep, err := explore.Run(sctx, p, sw)
	o := op{name: "explore", sec: time.Since(start).Seconds(), err: err, count: cells}
	span.End()
	if err == nil {
		var b strings.Builder
		rep.Print(&b)
		js, jerr := json.Marshal(rep)
		if jerr != nil {
			o.err = jerr
		}
		b.Write(js)
		o.text = b.String()
		o.acc = accuracyOf(rep)
	}
	return []op{o}
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// accuracyOf extracts the accuracy figures a result carries: Fig. 10's
// orig/clone CPI correlation and Fig. 11's speedup-prediction errors, or
// the same three figures over a sweep's cells and design points.
func accuracyOf(res any) map[string]float64 {
	switch r := res.(type) {
	case *experiments.Fig10Result:
		return map[string]float64{"cpi_corr": r.Correlation}
	case *experiments.Fig11Result:
		return map[string]float64{"speedup_err_avg": r.AvgSpeedupErr, "speedup_err_max": r.MaxSpeedupErr}
	case *explore.Report:
		var sum, max float64
		pts := r.Points[1:] // Points[0] is the baseline the speedups are taken against
		for _, p := range pts {
			sum += p.SpeedupErr
			if p.SpeedupErr > max {
				max = p.SpeedupErr
			}
		}
		avg := 0.0
		if len(pts) > 0 {
			avg = sum / float64(len(pts))
		}
		return map[string]float64{"cpi_corr": r.Correlation, "speedup_err_avg": avg, "speedup_err_max": max}
	}
	return nil
}
