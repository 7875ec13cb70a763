package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// manyCfgs is a small design-point list on amd64: the Fig. 10 machine at
// five L1 sizes.
func manyCfgs() []cpu.Config {
	var cfgs []cpu.Config
	for _, kb := range []int{2, 4, 8, 16, 32} {
		cfgs = append(cfgs, cpu.Simulated2Wide(kb))
	}
	return cfgs
}

// TestPipelineSimulateManyPartialWarm verifies the batched Simulate stage
// resolves every configuration as its own artifact: over a store already
// holding some of the keys it computes exactly the missing ones, its
// summaries equal per-key Simulate results, and the entries it stores are
// byte-identical to the ones per-key Simulate stores under the SimKeys
// digests. A failed batch caches nothing (see simulateManyFailsClean).
func TestPipelineSimulateManyPartialWarm(t *testing.T) {
	t.Run("FailsClean", simulateManyFailsClean)
	ctx := context.Background()
	w := mustWorkload(t, "crc32/small")
	cfgs := manyCfgs()
	const bound = 40_000

	// Reference: every key computed one at a time into its own store.
	refStore := openStore(t, t.TempDir())
	ref := pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: refStore})
	want := make(map[bool][]cpu.Summary)
	for _, clone := range []bool{false, true} {
		for _, cfg := range cfgs {
			s, err := ref.Simulate(ctx, w, isa.AMD64, compiler.O2, cfg, clone, bound)
			if err != nil {
				t.Fatal(err)
			}
			want[clone] = append(want[clone], s)
		}
	}

	// Partially warm a second store: original at configs 0 and 3, clone
	// at config 1.
	dir := t.TempDir()
	st := openStore(t, dir)
	warmer := pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: st})
	for _, pre := range []struct {
		i     int
		clone bool
	}{{0, false}, {3, false}, {1, true}} {
		if _, err := warmer.Simulate(ctx, w, isa.AMD64, compiler.O2, cfgs[pre.i], pre.clone, bound); err != nil {
			t.Fatal(err)
		}
	}

	p := pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: openStore(t, dir)})
	misses := map[bool]uint64{false: 3, true: 4}
	for _, clone := range []bool{false, true} {
		before := p.CacheStats().ComputedFor(pipeline.StageSimulate)
		got, err := p.SimulateMany(ctx, w, isa.AMD64, compiler.O2, cfgs, clone, bound)
		if err != nil {
			t.Fatal(err)
		}
		if n := p.CacheStats().ComputedFor(pipeline.StageSimulate) - before; n != misses[clone] {
			t.Errorf("clone=%v: computed %d simulations, want the %d missing ones", clone, n, misses[clone])
		}
		for i := range cfgs {
			if got[i] != want[clone][i] {
				t.Errorf("clone=%v config %d: batched summary %+v, per-key %+v", clone, i, got[i], want[clone][i])
			}
		}
	}
	for _, cfg := range cfgs {
		for _, k := range p.SimKeys(w, isa.AMD64, compiler.O2, cfg, bound) {
			gotPayload, ok := st.Get(k.Digest(), k.StoreKind(), k.Canonical())
			if !ok {
				t.Fatalf("%s (clone=%v): advertised key not stored", cfg.Name, k.Clone)
			}
			wantPayload, _ := refStore.Get(k.Digest(), k.StoreKind(), k.Canonical())
			if !bytes.Equal(gotPayload, wantPayload) {
				t.Errorf("%s (clone=%v): stored entry differs from per-key Simulate's", cfg.Name, k.Clone)
			}
		}
	}

	// A warm repeat is all hits.
	before := p.CacheStats().ComputedFor(pipeline.StageSimulate)
	if _, err := p.SimulateMany(ctx, w, isa.AMD64, compiler.O2, cfgs, true, bound); err != nil {
		t.Fatal(err)
	}
	if n := p.CacheStats().ComputedFor(pipeline.StageSimulate) - before; n != 0 {
		t.Errorf("warm repeat computed %d simulations", n)
	}
}

// simulateManyFailsClean verifies that a canceled context or one invalid
// configuration fails the whole batch with a StageError and caches
// nothing, in memory or in the store.
func simulateManyFailsClean(t *testing.T) {
	w := mustWorkload(t, "crc32/small")
	cfgs := manyCfgs()
	const bound = 40_000

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	bad := append(append([]cpu.Config(nil), cfgs...), cpu.Simulated2Wide(8))
	bad[len(bad)-1].Name, bad[len(bad)-1].L1Lat = "broken", 0
	wrongISA := append(append([]cpu.Config(nil), cfgs...), cpu.Pentium4_3000)

	for _, tc := range []struct {
		name string
		ctx  context.Context
		cfgs []cpu.Config
	}{
		{"canceled", canceled, cfgs},
		{"invalid", context.Background(), bad},
		{"wrong ISA", context.Background(), wrongISA},
	} {
		st := openStore(t, t.TempDir())
		p := pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: st})
		_, err := p.SimulateMany(tc.ctx, w, isa.AMD64, compiler.O2, tc.cfgs, false, bound)
		var se *pipeline.StageError
		if !errors.As(err, &se) || se.Stage != pipeline.StageSimulate {
			t.Fatalf("%s: got %v, want a simulate StageError", tc.name, err)
		}
		if tc.ctx.Err() != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not wrap the cancellation", tc.name, err)
		}
		if n := p.CacheStats().ComputedFor(pipeline.StageSimulate); n != 0 {
			t.Errorf("%s: computed %d simulations", tc.name, n)
		}
		assertNoSims(t, tc.name, p, st, cfgs, bound)
		// Nothing was cached in memory either: the valid configurations
		// all compute on a retry.
		if _, err := p.SimulateMany(context.Background(), w, isa.AMD64, compiler.O2, cfgs, false, bound); err != nil {
			t.Fatal(err)
		}
		if n := p.CacheStats().ComputedFor(pipeline.StageSimulate); n != uint64(len(cfgs)) {
			t.Errorf("%s: retry computed %d simulations, want %d", tc.name, n, len(cfgs))
		}
	}
}

// assertNoSims requires that none of cfgs' simulation keys is stored.
func assertNoSims(t *testing.T, name string, p *pipeline.Pipeline, st *store.Store, cfgs []cpu.Config, bound uint64) {
	t.Helper()
	w := mustWorkload(t, "crc32/small")
	for _, cfg := range cfgs {
		for _, k := range p.SimKeys(w, isa.AMD64, compiler.O2, cfg, bound) {
			if st.Has(k.Digest(), k.StoreKind(), k.Canonical()) {
				t.Errorf("%s: %s (clone=%v) was stored", name, cfg.Name, k.Clone)
			}
		}
	}
}

// TestPipelineSimulateCellsWorkerInvariant verifies that batching and the
// narrow-sweep split change nothing observable: a one-workload,
// one-level sweep yields identical pairs for 1, 2, and 8 workers, and
// equal to per-key Simulate.
func TestPipelineSimulateCellsWorkerInvariant(t *testing.T) {
	ctx := context.Background()
	w := mustWorkload(t, "crc32/small")
	const bound = 40_000
	var cells []pipeline.SimCell
	for _, cfg := range manyCfgs() {
		cells = append(cells, pipeline.SimCell{Workload: w, Level: compiler.O2, Config: cfg})
	}
	ref := pipeline.New(pipeline.Options{Workers: 1, Seed: 7})
	var want []pipeline.SimPair
	for _, c := range cells {
		var pair pipeline.SimPair
		var err error
		if pair.Orig, err = ref.Simulate(ctx, w, isa.AMD64, c.Level, c.Config, false, bound); err != nil {
			t.Fatal(err)
		}
		if pair.Syn, err = ref.Simulate(ctx, w, isa.AMD64, c.Level, c.Config, true, bound); err != nil {
			t.Fatal(err)
		}
		want = append(want, pair)
	}
	for _, workers := range []int{1, 2, 8} {
		p := pipeline.New(pipeline.Options{Workers: workers, Seed: 7})
		got, err := p.SimulateCells(ctx, cells, bound)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d cell %d: %+v, want %+v", workers, i, got[i], want[i])
			}
		}
		if n := p.CacheStats().ComputedFor(pipeline.StageSimulate); n != uint64(2*len(cells)) {
			t.Errorf("workers=%d: computed %d simulations, want %d", workers, n, 2*len(cells))
		}
	}
}

// TestPipelineSimulateManyOverlapping races overlapping batches, in
// different orders, on two pipelines sharing one store (standing in for
// two processes): no batch may wait on another while holding claims, so
// all finish; each distinct configuration is computed exactly once
// across both pipelines; and every caller sees the per-key summaries.
func TestPipelineSimulateManyOverlapping(t *testing.T) {
	ctx := context.Background()
	w := mustWorkload(t, "crc32/small")
	cfgs := manyCfgs()
	const bound = 40_000

	ref := pipeline.New(pipeline.Options{Workers: 1, Seed: 7})
	want, err := ref.SimulateMany(ctx, w, isa.AMD64, compiler.O2, cfgs, false, bound)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	pipes := []*pipeline.Pipeline{
		pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: openStore(t, dir)}),
		pipeline.New(pipeline.Options{Workers: 2, Seed: 7, Store: openStore(t, dir)}),
	}
	batches := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 1}, {4, 2, 0}, {4, 3, 2, 1, 0}, {2}}
	var wg sync.WaitGroup
	for bi, b := range batches {
		wg.Add(1)
		go func(p *pipeline.Pipeline, b []int) {
			defer wg.Done()
			sub := make([]cpu.Config, len(b))
			for j, i := range b {
				sub[j] = cfgs[i]
			}
			got, err := p.SimulateMany(ctx, w, isa.AMD64, compiler.O2, sub, false, bound)
			if err != nil {
				t.Error(err)
				return
			}
			for j, i := range b {
				if got[j] != want[i] {
					t.Errorf("batch %v: config %d summary %+v, want %+v", b, i, got[j], want[i])
				}
			}
		}(pipes[bi%len(pipes)], b)
	}
	wg.Wait()
	var computed uint64
	for _, p := range pipes {
		computed += p.CacheStats().ComputedFor(pipeline.StageSimulate)
	}
	if computed != uint64(len(cfgs)) {
		t.Errorf("computed %d simulations across both pipelines, want %d", computed, len(cfgs))
	}
}
