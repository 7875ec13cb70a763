package main

import (
	"context"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestSmokeTinySuite runs every workload on the tiny suite, untraced and
// traced, and checks that each run passes its output checks and reports
// every catalogue metric with its unit. The traced run follows the
// untraced one with the same seed, so it is also checked against the
// reference the first run recorded.
func TestSmokeTinySuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiments and the calibration sweep")
	}
	dir := t.TempDir()
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: experiments.CloneSeed, traced: traced, suite: "tiny",
				workers: 2, dir: dir, deadline: 5 * time.Minute}
			res, err := measure(context.Background(), o, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Line.Correct || res.Line.Failed != 0 || res.Line.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v, %d/%d failed: %v", w, traced,
					res.Line.Correct, res.Line.Failed, res.Line.Attempted, res.Failures)
			}
			catalogue := endToEnd
			if traced {
				catalogue = perLayer
			}
			if len(res.Line.Metrics) != len(catalogue) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Line.Metrics), len(catalogue))
			}
			for _, m := range catalogue {
				v, ok := res.Line.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m.Name, v, m.Unit)
				}
				if v.Value <= 0 && measured(w, m.Name) {
					t.Errorf("%s traced=%v: %s = %v, want > 0", w, traced, m.Name, v.Value)
				}
			}
		}
	}
}

// measured reports whether workload w must give metric name a positive
// value: every end-to-end and layer-pass metric, the traced pass's figure
// or sweep timings where w runs them, and the store and pipeline metrics
// that w must move (a cold pass writes and misses, a warm pass reads from
// disk, the sweep reads its prebuilt programs and writes its simulations).
// The tracing overhead may read zero or less, as noise can hide it.
func measured(w, name string) bool {
	switch {
	case strings.HasPrefix(name, "experiments."):
		return w != exploreCal
	case strings.HasPrefix(name, "explore."):
		return w == exploreCal
	case strings.HasPrefix(name, "store."), strings.HasPrefix(name, "pipeline."):
		return slices.Contains(mustMove[w], name)
	case name == "trace.overhead_s":
		return false
	}
	return true
}

var (
	writes   = []string{"store.puts", "store.put_s", "store.write_mb", "pipeline.misses"}
	reads    = []string{"store.gets", "store.get_s", "store.read_mb", "pipeline.disk_hits"}
	mustMove = map[string][]string{
		quickCold:  writes,
		quickWarm:  reads,
		exploreCal: append(slices.Clone(writes), reads...),
	}
)

// TestCheckMarksFailures feeds the output checks passes that break each
// rule and expects the affected operations to fail.
func TestCheckMarksFailures(t *testing.T) {
	mk := func(texts ...string) pass {
		ps := pass{exact: map[string]float64{"vm.instrs": 10}}
		for i, s := range texts {
			ps.ops = append(ps.ops, op{name: figureNames[i], text: s, count: 1})
		}
		return ps
	}
	failed := func(ps pass) (n int) {
		for _, o := range ps.ops {
			if o.failed {
				n++
			}
		}
		return n
	}
	empty := func() *reference {
		return &reference{Digests: map[string]string{}, Exact: map[string]map[string]float64{}}
	}

	h := &harness{workload: quickCold, seed: 1}
	passes := []pass{mk("a", "b"), mk("a", "c")}
	passes[0].ops[0].err = errors.New("boom")
	if notes := h.check(passes, empty()); len(notes) != 2 || failed(passes[0]) != 1 || failed(passes[1]) != 1 {
		t.Errorf("error and differing table: notes %q, failed %d and %d", notes, failed(passes[0]), failed(passes[1]))
	}

	passes = []pass{mk("a", "b"), mk("a", "b")}
	passes[1].exact["vm.instrs"] = 11
	if notes := h.check(passes, empty()); len(notes) != 1 || failed(passes[1]) != 2 {
		t.Errorf("differing count: notes %q, failed %d", notes, failed(passes[1]))
	}

	ref := empty()
	ref.Digests["fig4"] = digest("other")
	passes = []pass{mk("a", "b")}
	if notes := h.check(passes, ref); len(notes) != 1 || !passes[0].ops[1].failed {
		t.Errorf("table differing from an earlier run: notes %q", notes)
	}

	warm := &harness{workload: quickWarm, seed: 1, fill: mk("a", "x").ops}
	passes = []pass{mk("a", "b")}
	passes[0].stats.Computed[0] = 1
	if notes := warm.check(passes, empty()); len(notes) != 2 || failed(passes[0]) != 2 {
		t.Errorf("warm pass differing from its fill and computing: notes %q, failed %d", notes, failed(passes[0]))
	}
}
