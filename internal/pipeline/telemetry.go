package pipeline

import (
	"repro/internal/telemetry"
)

// stageSecondsBuckets spans the observed range of stage wall times: a parse
// is microseconds, a cold profile of a large workload tens of seconds.
var stageSecondsBuckets = []float64{
	0.0001, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// cacheTelemetry holds what the artifact cache records only for telemetry:
// the per-stage duration histograms, the wip-adoption counter, and the
// span tracer. The cache's own counters are not copied here; they are
// registered as scrape-time reads of its atomics, so a /metrics scrape and
// CacheStats read the same counts. Built from a nil registry/tracer it is
// entirely no-op handles, so the cache's hot path pays only nil checks
// when telemetry is disabled.
type cacheTelemetry struct {
	wipAdopted *telemetry.Counter
	seconds    [NumStages]*telemetry.Histogram
	tracer     *telemetry.Tracer
}

// newCacheTelemetry exposes c's counters in reg, resolves the remaining
// handles there, and attaches tracer. Both may be nil. Pipelines sharing
// one registry each register their counters, and a scrape reports their
// sum, while each pipeline's CacheStats stays its own.
func newCacheTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer, c *artifactCache) *cacheTelemetry {
	t := &cacheTelemetry{tracer: tracer}
	reg.CounterFunc("synth_pipeline_cache_hits_total",
		"Requests satisfied by (or coalesced onto) an in-memory cache entry.", c.hits.Load)
	reg.CounterFunc("synth_pipeline_cache_misses_total",
		"Requests that computed the artifact.", c.misses.Load)
	reg.CounterFunc("synth_pipeline_cache_disk_hits_total",
		"Memory misses satisfied by the persistent store.", c.diskHits.Load)
	reg.CounterFunc("synth_pipeline_cache_disk_errors_total",
		"Store entries that failed to decode and store writes that failed.", c.diskErrors.Load)
	t.wipAdopted = reg.Counter("synth_pipeline_wip_adopted_total",
		"Artifacts adopted after waiting on another process's in-progress marker.")
	for s := Stage(0); int(s) < NumStages; s++ {
		reg.CounterFunc("synth_pipeline_stage_computed_total",
			"Artifact computations by pipeline stage.", c.computed[s].Load, "stage", s.String())
		t.seconds[s] = reg.Histogram("synth_pipeline_stage_seconds",
			"Wall time of artifact computations by pipeline stage.",
			stageSecondsBuckets, "stage", s.String())
	}
	return t
}
