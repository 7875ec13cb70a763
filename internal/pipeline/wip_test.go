package pipeline

// In-package tests for the cross-process in-progress gate: two pipelines
// sharing one store must single-flight persisted computations through the
// wip/ marker subtree, and a marker abandoned by a crashed process must be
// stolen rather than stalling everyone forever.

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/store"
	"repro/internal/workloads"
)

// wipPipeline builds a pipeline over the shared store directory exactly as
// a second process would: a fresh Pipeline (cold memory cache) over a
// fresh *store.Store handle.
func wipPipeline(t *testing.T, dir string) *Pipeline {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Workers: 2, Seed: 1, Store: st})
}

// TestWIPGateCrossProcessDedup is the gate's core property: two pipelines
// (standing in for two processes) racing to profile the same workload over
// one store perform the underlying compile and profile exactly once in
// total — the loser of each marker claim adopts the winner's artifact as a
// disk hit instead of recomputing it.
func TestWIPGateCrossProcessDedup(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := workloads.ByName("crc32/small")
	if w == nil {
		t.Fatal("workload crc32/small missing")
	}
	a, b := wipPipeline(t, dir), wipPipeline(t, dir)

	start := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for _, p := range []*Pipeline{a, b} {
		wg.Add(1)
		go func(p *Pipeline) {
			defer wg.Done()
			<-start
			_, err := p.Profile(ctx, w)
			errs <- err
		}(p)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("profile: %v", err)
		}
	}

	sum := a.CacheStats().Add(b.CacheStats())
	if got := sum.ComputedFor(StageProfile); got != 1 {
		t.Errorf("profile computed %d times across both pipelines, want 1", got)
	}
	if got := sum.ComputedFor(StageCompile); got != 1 {
		t.Errorf("profiling compile computed %d times across both pipelines, want 1", got)
	}
	if sum.DiskErrors != 0 {
		t.Errorf("gated run reported %d disk errors", sum.DiskErrors)
	}

	// The gate cleans up after itself: no in-progress markers survive.
	entries, err := os.ReadDir(filepath.Join(dir, store.WIPDir))
	if err == nil && len(entries) != 0 {
		t.Errorf("%d stale wip markers left behind", len(entries))
	}
}

// TestWIPStaleMarkerStolen simulates a process that claimed an artifact
// and died without heartbeating: its marker must be stolen after wipTTL
// and the computation must proceed, so a crash can only stall the fleet
// briefly, never wedge it.
func TestWIPStaleMarkerStolen(t *testing.T) {
	savedTTL, savedPoll := wipTTL, wipPoll
	wipTTL, wipPoll = 60*time.Millisecond, 5*time.Millisecond
	defer func() { wipTTL, wipPoll = savedTTL, savedPoll }()

	ctx := context.Background()
	dir := t.TempDir()
	w := workloads.ByName("crc32/small")
	if w == nil {
		t.Fatal("workload crc32/small missing")
	}
	p := wipPipeline(t, dir)

	// Plant the dead process's marker on the profile artifact.
	var profileKey Key
	for _, k := range p.PairKeys(w, isa.AMD64, compiler.O0) {
		if k.Stage == StageProfile {
			profileKey = k
		}
	}
	if profileKey.Stage != StageProfile {
		t.Fatal("no profile key in PairKeys")
	}
	if err := p.opts.Store.CreateExclusive(wipName(profileKey), []byte("{}")); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := p.Profile(ctx, w)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("profile after stale steal: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline wedged on an abandoned wip marker")
	}
	if got := p.CacheStats().ComputedFor(StageProfile); got != 1 {
		t.Errorf("profile computed %d times, want 1", got)
	}
	if _, err := p.opts.Store.Stat(wipName(profileKey)); err == nil {
		t.Error("stolen marker still present after the computation")
	}
}

// peerFirst is a store backend through which a peer process finishes its
// computation just before this process's first marker claim, the race the
// post-claim re-check exists for.
type peerFirst struct {
	store.Backend
	once sync.Once
	peer func()
}

func (b *peerFirst) CreateExclusive(name string, data []byte) error {
	b.once.Do(b.peer)
	return b.Backend.CreateExclusive(name, data)
}

// TestWIPRecheckAfterClaim pins the re-check after winning a marker on a
// single-key stage: a peer writes the compile artifact and releases its
// marker between this pipeline's disk probe and its marker claim, so the
// pipeline must adopt the peer's artifact instead of compiling again.
func TestWIPRecheckAfterClaim(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := workloads.ByName("crc32/small")
	if w == nil {
		t.Fatal("workload crc32/small missing")
	}
	peer := wipPipeline(t, dir)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	be := &peerFirst{Backend: st, peer: func() {
		if _, err := peer.Compile(ctx, w, isa.AMD64, compiler.O2); err != nil {
			t.Errorf("peer compile: %v", err)
		}
	}}
	p := New(Options{Workers: 1, Seed: 1, Store: be})
	if _, err := p.Compile(ctx, w, isa.AMD64, compiler.O2); err != nil {
		t.Fatal(err)
	}
	if got := peer.CacheStats().ComputedFor(StageCompile); got != 1 {
		t.Fatalf("peer computed the compile %d times, want 1", got)
	}
	cs := p.CacheStats()
	if got := cs.ComputedFor(StageCompile); got != 0 {
		t.Errorf("compile computed %d times after the peer stored it, want 0", got)
	}
	if cs.DiskHits != 1 || cs.DiskErrors != 0 {
		t.Errorf("stats %+v, want 1 disk hit and no disk errors", cs)
	}
}
