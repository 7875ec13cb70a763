package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// traceEvents decodes an exported Chrome trace into its event list.
func traceEvents(t *testing.T, tr *telemetry.Tracer) []struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Tid  uint64            `json:"tid"`
	Args map[string]string `json:"args"`
} {
	t.Helper()
	var b strings.Builder
	if err := tr.Export(&b); err != nil {
		t.Fatalf("Export: %v", err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Tid  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return f.TraceEvents
}

// TestPipelineTraceNesting runs a cold synthesis under a tracer and
// asserts the exported Chrome trace contains one span per computed stage,
// nested along the dataflow: synthesize contains profile contains compile
// contains check contains parse, all on one tid.
func TestPipelineTraceNesting(t *testing.T) {
	tr := telemetry.NewTracer(256)
	p := New(Options{Workers: 1, Tracer: tr})
	w := workloads.ByName("crc32/small")
	if w == nil {
		t.Fatal("workload crc32/small not found")
	}
	if _, err := p.Synthesize(context.Background(), w); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	evs := traceEvents(t, tr)
	byName := map[string]int{}
	for _, e := range evs {
		byName[e.Name] = byName[e.Name] + 1
		if e.Ph != "X" {
			t.Fatalf("span %q has phase %q, want X", e.Name, e.Ph)
		}
	}
	for _, name := range []string{"parse", "check", "compile", "profile", "synthesize"} {
		if byName[name] != 1 {
			t.Fatalf("stage %q has %d spans, want 1 (have: %v)", name, byName[name], byName)
		}
	}
	find := func(name string) (ev struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Tid  uint64            `json:"tid"`
		Args map[string]string `json:"args"`
	}) {
		for _, e := range evs {
			if e.Name == name {
				return e
			}
		}
		t.Fatalf("span %q missing", name)
		return
	}
	chain := []string{"synthesize", "profile", "compile", "check", "parse"}
	for i := 1; i < len(chain); i++ {
		outer, inner := find(chain[i-1]), find(chain[i])
		if inner.Tid != outer.Tid {
			t.Fatalf("%s (tid %d) not on %s's tid %d", chain[i], inner.Tid, chain[i-1], outer.Tid)
		}
		if inner.Ts < outer.Ts || inner.Ts+inner.Dur > outer.Ts+outer.Dur {
			t.Fatalf("%s [%v,%v] not contained in %s [%v,%v]",
				chain[i], inner.Ts, inner.Ts+inner.Dur,
				chain[i-1], outer.Ts, outer.Ts+outer.Dur)
		}
	}
	if find("synthesize").Args["workload"] != "crc32/small" {
		t.Fatalf("synthesize span lacks workload attr: %v", find("synthesize").Args)
	}
}

// TestPipelineMetricsMatchCacheStats drains small runs through two
// pipelines sharing one registry, as a node's pipelines do, and asserts
// every scraped cache counter equals the sum of both pipelines'
// CacheStats — the contract the CI observability job curls /metrics to
// verify — while each pipeline's CacheStats keeps only its own counts.
func TestPipelineMetricsMatchCacheStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(Options{Workers: 2, Metrics: reg})
	q := New(Options{Workers: 1, Metrics: reg})
	ctx := context.Background()
	w := workloads.ByName("crc32/small")
	if w == nil {
		t.Fatal("workload crc32/small not found")
	}
	if _, err := p.Synthesize(ctx, w); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := p.Validate(ctx, w); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Warm re-run: pure hits, so the hit counter must move too.
	if _, err := p.Synthesize(ctx, w); err != nil {
		t.Fatalf("warm Synthesize: %v", err)
	}
	if _, err := q.Profile(ctx, w); err != nil {
		t.Fatalf("second pipeline Profile: %v", err)
	}
	ps, qs := p.CacheStats(), q.CacheStats()
	if qs.ComputedFor(StageSynthesize) != 0 || qs.ComputedFor(StageProfile) != 1 {
		t.Fatalf("second pipeline's stats are not its own: %+v", qs)
	}
	stats := ps.Add(qs)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	out := b.String()
	wantLine := func(line string) {
		t.Helper()
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("scrape missing %q:\n%s", line, out)
		}
	}
	wantLine(fmt.Sprintf("synth_pipeline_cache_hits_total %d", stats.Hits))
	wantLine(fmt.Sprintf("synth_pipeline_cache_misses_total %d", stats.Misses))
	wantLine(fmt.Sprintf("synth_pipeline_cache_disk_hits_total %d", stats.DiskHits))
	wantLine(fmt.Sprintf("synth_pipeline_cache_disk_errors_total %d", stats.DiskErrors))
	for s := Stage(0); int(s) < NumStages; s++ {
		wantLine(fmt.Sprintf("synth_pipeline_stage_computed_total{stage=%q} %d",
			s.String(), stats.ComputedFor(s)))
	}
	if ps.Hits == 0 || ps.Misses == 0 || qs.Misses == 0 {
		t.Fatalf("runs exercised no cache traffic: %+v, %+v", ps, qs)
	}
}
