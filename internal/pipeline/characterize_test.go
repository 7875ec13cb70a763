package pipeline_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/store"
	"repro/internal/workloads"
)

// charPoint is one Characterize call: a level and a program side.
type charPoint struct {
	level compiler.OptLevel
	clone bool
}

// charPoints are the four programs the Characterize tests run: the
// original and the clone at -O0 and -O2.
var charPoints = []charPoint{{compiler.O0, false}, {compiler.O0, true}, {compiler.O2, false}, {compiler.O2, true}}

// characterizeAll characterizes w at every charPoint, concurrently on the
// pipeline's pool, and returns the results in charPoint order.
func characterizeAll(t *testing.T, p *pipeline.Pipeline, w *workloads.Workload) []profile.Characterization {
	t.Helper()
	cs, err := pipeline.Map(context.Background(), p, charPoints, func(ctx context.Context, c charPoint) (profile.Characterization, error) {
		return p.Characterize(ctx, w, isa.AMD64, c.level, c.clone)
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestPipelineCharacterizeColdWarm checks that a cold run computes one
// artifact per (program, side), that repeats are hits, and that a fresh
// pipeline over the same store computes nothing at all — no
// characterization, no compile — and returns equal values.
func TestPipelineCharacterizeColdWarm(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "crc32/small")

	cold := pipeline.New(pipeline.Options{Workers: 2, Seed: 1, Store: openStore(t, dir)})
	want := characterizeAll(t, cold, w)
	characterizeAll(t, cold, w)
	if n := cold.CacheStats().ComputedFor(pipeline.StageCharacterize); n != uint64(len(charPoints)) {
		t.Fatalf("cold run computed %d characterizations, want %d", n, len(charPoints))
	}
	for i, c := range want {
		var cached uint64
		for _, s := range c.Cache {
			cached += s.Accesses
		}
		if c.Instrs == 0 || len(c.Cache) != 6 || cached == 0 || c.Branch.Lookups == 0 {
			t.Errorf("point %+v: empty characterization %+v", charPoints[i], c)
		}
		var mix uint64
		for _, n := range c.Mix {
			mix += n
		}
		if mix != c.Instrs {
			t.Errorf("point %+v: mix sums to %d, want %d", charPoints[i], mix, c.Instrs)
		}
	}

	warm := pipeline.New(pipeline.Options{Workers: 2, Seed: 1, Store: openStore(t, dir)})
	got := characterizeAll(t, warm, w)
	ws := warm.CacheStats()
	for st := pipeline.Stage(0); int(st) < pipeline.NumStages; st++ {
		if n := ws.ComputedFor(st); n != 0 {
			t.Errorf("warm pipeline computed %d %v artifacts, want 0", n, st)
		}
	}
	if ws.DiskHits != uint64(len(charPoints)) || ws.DiskErrors != 0 {
		t.Errorf("warm pipeline: %d disk hits (want %d), %d disk errors", ws.DiskHits, len(charPoints), ws.DiskErrors)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm characterizations differ from cold:\n got %+v\nwant %+v", got, want)
	}
}

// TestPipelineCharacterizeKeys checks the key contract through a shared
// store: a pipeline with another seed reuses the original's artifact but
// characterizes its own clone.
func TestPipelineCharacterizeKeys(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := mustWorkload(t, "crc32/small")
	seed1 := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	for _, clone := range []bool{false, true} {
		if _, err := seed1.Characterize(ctx, w, isa.AMD64, compiler.O2, clone); err != nil {
			t.Fatal(err)
		}
	}

	seed2 := pipeline.New(pipeline.Options{Workers: 1, Seed: 2, Store: openStore(t, dir)})
	if _, err := seed2.Characterize(ctx, w, isa.AMD64, compiler.O2, false); err != nil {
		t.Fatal(err)
	}
	if n := seed2.CacheStats().ComputedFor(pipeline.StageCharacterize); n != 0 {
		t.Errorf("the original's key changed with the seed: %d characterizations computed", n)
	}
	if _, err := seed2.Characterize(ctx, w, isa.AMD64, compiler.O2, true); err != nil {
		t.Fatal(err)
	}
	if n := seed2.CacheStats().ComputedFor(pipeline.StageCharacterize); n != 1 {
		t.Errorf("the clone's key ignored the seed: %d characterizations computed, want 1", n)
	}
}

// TestPipelineCharacterizeCorruptEntry replaces a stored characterization
// with a zero-instruction payload under a valid envelope: a fresh
// pipeline must count a disk error and recompute the artifact.
func TestPipelineCharacterizeCorruptEntry(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := mustWorkload(t, "crc32/small")
	cold := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	want, err := cold.Characterize(ctx, w, isa.AMD64, compiler.O2, false)
	if err != nil {
		t.Fatal(err)
	}

	k := pipeline.Key{Stage: pipeline.StageCharacterize, Workload: w.Name,
		ISA: isa.AMD64.Name, Level: compiler.O2, Src: store.Fingerprint([]byte(w.Source))}
	s := openStore(t, dir)
	if !s.Has(k.Digest(), k.StoreKind(), k.Canonical()) {
		t.Fatalf("no stored characterization under %s", k.Canonical())
	}
	if err := s.Put(k.Digest(), k.StoreKind(), k.Canonical(), []byte(`{"instrs":0}`)); err != nil {
		t.Fatal(err)
	}

	fresh := pipeline.New(pipeline.Options{Workers: 1, Seed: 1, Store: openStore(t, dir)})
	got, err := fresh.Characterize(ctx, w, isa.AMD64, compiler.O2, false)
	if err != nil {
		t.Fatalf("a corrupt entry must be recomputed, not fail: %v", err)
	}
	fs := fresh.CacheStats()
	if fs.DiskErrors != 1 || fs.ComputedFor(pipeline.StageCharacterize) != 1 {
		t.Errorf("corrupt entry: %d disk errors, %d characterizations computed; want 1 and 1",
			fs.DiskErrors, fs.ComputedFor(pipeline.StageCharacterize))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recomputed characterization differs: got %+v, want %+v", got, want)
	}
}
