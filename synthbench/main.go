// Command synthbench is the repository's benchmark. It times what users of
// the system wait on — regenerating the quick-suite evaluation, cold and
// warm, and sweeping the Fig. 10 calibration design space — through the
// public APIs (pipeline.New, store.Open, the experiments.Runner figure
// methods, explore.Run), checks every output, and prints one JSON result
// line. An untraced run reports the end-to-end metrics; a traced run
// (-trace 1) makes a traced pass, a control pass and a direct pass over
// every layer and reports the per-layer metrics. See README.md.
//
//	bash synthbench/run.sh --workload quick-warm --seed 7 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// traceCapacity bounds the spans kept for the Chrome trace.
const traceCapacity = 1 << 18

// runDeadline cancels a workload's run that overruns, failing whatever is
// unfinished, so that a run still ends within three minutes.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	suite    string
	workers  int
	dir      string
	deadline time.Duration
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("synthbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "quick-cold, quick-warm, explore-calibration, or all (each workload untraced, then traced)")
	fs.Int64Var(&o.seed, "seed", experiments.CloneSeed, "clone synthesis seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "timed passes repeat until together they have run this long (at least one pass)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, a Chrome trace, and the tracing overhead")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "synthbench.d"), "directory for stores, traces, references and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.traced = trace != 0
	o.suite = "quick"
	o.workers = min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	o.deadline = runDeadline
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var line *resultLine
	var err error
	if o.workload == "all" {
		line, err = runAll(ctx, o, stderr)
	} else {
		var res *result
		if res, err = measure(ctx, o, stderr); err == nil {
			line = &res.Line
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "synthbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "synthbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// resultLine is the JSON object printed as the last line of standard
// output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is the full record of one run, written to the result file.
type result struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Suite     string                 `json:"suite"`
	Traced    bool                   `json:"traced"`
	Host      host                   `json:"host"`
	Line      resultLine             `json:"result"`
	PrepareS  float64                `json:"prepare_s"`
	SetupS    []float64              `json:"setup_samples_s"`
	Passes    []passSummary          `json:"passes"`
	Calls     map[string]callSummary `json:"layer_calls,omitempty"`
	Failures  []string               `json:"failures"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

type passSummary struct {
	Traced  bool               `json:"traced"`
	WallS   float64            `json:"wall_s"`
	CPUS    float64            `json:"cpu_s"`
	AllocMB float64            `json:"alloc_mb"`
	OpS     map[string]float64 `json:"op_s"`
	Exact   map[string]float64 `json:"exact"`
}

// callSummary describes the per-call times of one kind of layer call: the
// count, the quartiles, and the highest percentile with ten calls above it.
type callSummary struct {
	N          int     `json:"n"`
	Q1S        float64 `json:"q1_s"`
	MedianS    float64 `json:"median_s"`
	Q3S        float64 `json:"q3_s"`
	Percentile float64 `json:"percentile,omitempty"`
	TailS      float64 `json:"tail_s,omitempty"`
}

func summarize(secs []float64) callSummary {
	cs := callSummary{N: len(secs)}
	cs.Q1S, cs.MedianS, cs.Q3S = quartiles(secs)
	if p := highPercentile(len(secs)); p > 0 {
		cs.Percentile, cs.TailS = p, percentile(secs, p)
	}
	return cs
}

// measure runs one workload: set-up, then timed passes for at least
// o.seconds, or, when traced, one traced pass, an untraced control pass
// and the layer pass. It checks the outputs, writes the result file, and
// returns the result.
func measure(ctx context.Context, o options, stderr io.Writer) (*result, error) {
	if _, ok := workloadWhy[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s, or all)", o.workload, strings.Join(workloadNames, ", "))
	}
	ws, err := experiments.Suite(o.suite)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, o.deadline)
	defer cancel()
	runs := filepath.Join(o.dir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(runs, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	h := &harness{workload: o.workload, suite: o.suite, ws: ws, seed: o.seed,
		workers: o.workers, dir: scratch}
	res := &result{Workload: o.workload, Why: workloadWhy[o.workload], Suite: o.suite,
		Traced: o.traced, Host: fingerprint(o.workers, o.seed)}
	fmt.Fprintf(stderr, "synthbench: %s, %s suite, seed %d, %d workers, traced %v\n",
		o.workload, o.suite, o.seed, o.workers, o.traced)

	start := time.Now()
	if err := h.prepare(ctx); err != nil {
		return nil, fmt.Errorf("%s: preparing: %w", o.workload, err)
	}
	res.PrepareS = time.Since(start).Seconds()

	var passes []pass
	vals := map[string]float64{}
	if !o.traced {
		var walls, cpus, allocs []float64
		total := 0.0
		for len(passes) == 0 || total < o.seconds {
			if len(passes) > 0 && ctx.Err() != nil {
				break
			}
			in, secs, err := h.setup(nil)
			if err != nil {
				return nil, err
			}
			res.SetupS = append(res.SetupS, secs...)
			ps := h.timed(ctx, in, nil)
			in.close()
			passes = append(passes, ps)
			walls, cpus, allocs = append(walls, ps.wall), append(cpus, ps.cpu), append(allocs, ps.allocMB)
			total += ps.wall
			fmt.Fprintf(stderr, "synthbench: pass %d: %.2fs wall, %.2fs cpu, %.0f MB allocated\n",
				len(passes), ps.wall, ps.cpu, ps.allocMB)
		}
		vals["wall_s"] = median(walls)
		vals["cpu_s"] = median(cpus)
		vals["alloc_mb"] = median(allocs)
		vals["setup_s"] = res.PrepareS + median(res.SetupS)
		for _, k := range []string{"cpi_corr", "speedup_err_avg", "speedup_err_max"} {
			vals[k] = passes[0].exact[k]
		}
	} else {
		tr := telemetry.NewTracer(traceCapacity)
		in, _, err := h.setup(tr)
		if err != nil {
			return nil, err
		}
		tp := h.timed(ctx, in, tr)
		in.close()
		// An untraced control pass right after the traced one gives the
		// tracing overhead.
		in, _, err = h.setup(nil)
		if err != nil {
			return nil, err
		}
		control := h.timed(ctx, in, nil)
		in.close()
		fmt.Fprintf(stderr, "synthbench: traced pass: %.2fs wall, untraced control pass %.2fs\n", tp.wall, control.wall)
		lr, err := runLayers(ctx, ws, o.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: layer pass: %w", o.workload, err)
		}
		for k, v := range lr.exact {
			tp.exact[k] = v
		}
		passes = append(passes, tp, control)
		tracedValues(vals, tp, lr, control.wall)
		res.Calls = map[string]callSummary{}
		for kind, secs := range lr.calls {
			res.Calls[kind] = summarize(secs)
		}
		res.TraceFile = filepath.Join(o.dir, "traces", fmt.Sprintf("%s-%s-seed%d.json", o.workload, o.suite, o.seed))
		if err := exportTrace(tr, res.TraceFile); err != nil {
			return nil, err
		}
	}

	build, err := buildID()
	if err != nil {
		return nil, err
	}
	refFile := refPath(o.dir, build, o.suite, o.seed)
	ref, err := loadReference(refFile)
	if err != nil {
		return nil, err
	}
	res.Failures = h.check(passes, ref)
	if res.Failures == nil {
		res.Failures = []string{}
	}
	for _, ps := range passes {
		for _, op := range ps.ops {
			res.Line.Attempted += op.count
			if op.failed {
				res.Line.Failed += op.count
			}
		}
		sum := passSummary{Traced: ps.traced, WallS: ps.wall, CPUS: ps.cpu, AllocMB: ps.allocMB,
			OpS: map[string]float64{}, Exact: ps.exact}
		for _, op := range ps.ops {
			sum.OpS[op.name] = op.sec
		}
		res.Passes = append(res.Passes, sum)
	}
	if ctx.Err() != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("stopped early: %v", ctx.Err()))
	}
	res.Line.Correct = res.Line.Failed == 0 && len(res.Failures) == 0
	if res.Line.Correct {
		if err := ref.merge(refFile, o.workload, passes); err != nil {
			return nil, err
		}
	}
	catalogue := endToEnd
	if o.traced {
		catalogue = perLayer
	}
	res.Line.Metrics = report(catalogue, vals)
	res.Host.LoadAfter = loadAvg()

	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "synthbench: FAILED %s\n", f)
	}
	path := filepath.Join(o.dir, "results", fmt.Sprintf("%s-%s-seed%d-trace%d.json", o.workload, o.suite, o.seed, trace01(o.traced)))
	if err := writeJSON(path, res); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "synthbench: %s: %d/%d operations failed; result in %s\n",
		o.workload, res.Line.Failed, res.Line.Attempted, path)
	return res, nil
}

// tracedValues fills the per-layer metrics of a traced run from its traced
// pass, its layer pass, and the untraced control pass's wall time.
func tracedValues(vals map[string]float64, tp pass, lr *layerResult, untracedWall float64) {
	for k, v := range lr.metrics {
		vals[k] = v
	}
	vals["vm.instrs"] = tp.exact["vm.instrs"]
	vals["store.gets"] = float64(tp.store.Gets)
	vals["store.puts"] = float64(tp.store.Puts)
	vals["store.get_s"] = tp.store.GetSec
	vals["store.put_s"] = tp.store.PutSec
	vals["store.read_mb"] = float64(tp.store.ReadBytes) / 1e6
	vals["store.write_mb"] = float64(tp.store.WriteBytes) / 1e6
	cs := tp.stats
	vals["pipeline.hits"] = float64(cs.Hits)
	vals["pipeline.disk_hits"] = float64(cs.DiskHits)
	vals["pipeline.misses"] = float64(cs.Misses)
	vals["pipeline.hit_rate"] = div(float64(cs.Hits+cs.DiskHits), float64(cs.Hits+cs.DiskHits+cs.Misses))
	for _, st := range counted {
		vals["pipeline.computed."+st.String()] = float64(cs.ComputedFor(st))
	}
	for _, op := range tp.ops {
		if op.name == "explore" {
			vals["explore.cells"] = float64(op.count)
			vals["explore.s_per_cell"] = div(op.sec, float64(op.count))
			continue
		}
		vals["experiments."+op.name+"_s"] = op.sec
	}
	vals["trace.overhead_s"] = tp.wall - untracedWall
}

func trace01(traced bool) int {
	if traced {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and then traced, writes the
// combined report to report.json in the harness directory, and returns a
// result line whose metrics are named "<workload>/<metric>".
func runAll(ctx context.Context, o options, stderr io.Writer) (*resultLine, error) {
	line := &resultLine{Correct: true, Metrics: map[string]value{}}
	var all []*result
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			wo := o
			wo.workload, wo.traced = w, traced
			res, err := measure(ctx, wo, stderr)
			if err != nil {
				return nil, err
			}
			all = append(all, res)
			line.Correct = line.Correct && res.Line.Correct
			line.Attempted += res.Line.Attempted
			line.Failed += res.Line.Failed
			for k, v := range res.Line.Metrics {
				line.Metrics[w+"/"+k] = v
			}
		}
	}
	path := filepath.Join(o.dir, "report.json")
	if err := writeJSON(path, all); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "synthbench: all workloads: report in %s\n", path)
	return line, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// exportTrace writes the tracer's spans as a Chrome trace_event file.
func exportTrace(tr *telemetry.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Export(f); err != nil {
		f.Close()
		return err
	}
	if n := tr.Dropped(); n > 0 {
		f.Close()
		return fmt.Errorf("trace: %d spans dropped; raise traceCapacity", n)
	}
	return f.Close()
}
