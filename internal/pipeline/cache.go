package pipeline

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Key identifies one artifact in the content-addressed cache. Two jobs that
// agree on every field share the artifact: a compile of crc32/small for
// amd64 -O2 is the same whether Fig. 6, Fig. 8, or Fig. 11 asked for it.
//
// Keys address both cache tiers. In memory the struct itself is the map
// key; on disk the artifact is filed under Digest with Canonical stored in
// the entry envelope and re-verified on read, so a 64-bit digest collision
// degrades to a miss instead of a silently wrong artifact.
type Key struct {
	Stage    Stage
	Workload string
	ISA      string
	Level    compiler.OptLevel
	Seed     int64        // clone-synthesis seed (clone artifacts only)
	Clone    bool         // artifact derives from the synthetic clone
	Cache    cache.Config // profiling cache configuration (profile-derived artifacts)
	// TargetDyn and MaxInstrs carry the pipeline options that shape
	// profile- and clone-derived artifacts, so two processes sharing a
	// persistent store with different bounds never exchange artifacts.
	TargetDyn uint64
	MaxInstrs uint64
	// Src fingerprints the workload's HLC source on keys whose artifacts
	// are persisted, so editing a workload self-invalidates its disk
	// entries instead of serving stale artifacts under the same name.
	// (Compiler or profiler changes are not fingerprinted: those require
	// a store.SchemaVersion bump or a fresh store directory.)
	Src string
	// Sim scopes Simulate artifacts to one machine configuration and
	// simulation bound: the cpu.Config fingerprint plus the instruction
	// budget ("<fingerprint>:<maxInstrs>"). Empty on every other stage.
	Sim string
}

// Canonical returns the versioned, unambiguous encoding of the key that
// disk entries store and verify. Changing this format is a store schema
// change: bump store.SchemaVersion alongside it (v2 added the Sim field;
// v3 partitions stream-profiled artifacts — profiles carry per-site
// stride-stream descriptors and clones are synthesized from them, so
// artifacts computed under the v2 single-class model must never be
// served to a v3 pipeline; v4 adds the Generate stage, whose reports
// embed whole-corpus coverage statistics keyed by a generation-spec
// fingerprint carried in Workload; v5 invalidates everything simulated
// or synthesized before the timing model learned memory dependences —
// store-queue forwarding and the dependence-chain emission change both
// cycle counts and clone sources, so pre-v5 artifacts are stale).
func (k Key) Canonical() string {
	return fmt.Sprintf("v5|%d|%s|%s|%d|%d|%t|%s|%d|%d|%d|%d|%d|%s|%s",
		k.Stage, k.Workload, k.ISA, k.Level, k.Seed, k.Clone,
		k.Cache.Name, k.Cache.Size, k.Cache.LineSize, k.Cache.Assoc,
		k.TargetDyn, k.MaxInstrs, k.Src, k.Sim)
}

// Digest returns the printable content address: a 64-bit FNV-1a hash over
// Canonical, used as the disk filename and in logs and diagnostics.
func (k Key) Digest() string {
	h := fnv.New64a()
	h.Write([]byte(k.Canonical()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// StoreKind returns the store artifact kind the key's stage persists, or
// "" for memory-only stages (Parse, Check). Callers probing a store for an
// artifact's presence — the cluster coordinator deduplicating jobs against
// already-stored work — pass it alongside Digest and Canonical so a digest
// collision between artifact types reads as absent.
func (k Key) StoreKind() string {
	switch k.Stage {
	case StageCompile:
		return store.KindProgram
	case StageProfile:
		return store.KindProfile
	case StageSynthesize:
		return store.KindClone
	case StageValidate:
		return store.KindMarker
	case StageSimulate:
		return store.KindSim
	case StageGenerate:
		return store.KindGenerate
	case StageCharacterize:
		return store.KindCharacterize
	}
	return ""
}

// CacheStats reports artifact-cache effectiveness across both tiers.
type CacheStats struct {
	Hits     uint64 // requests satisfied by (or coalesced onto) an in-memory entry
	Misses   uint64 // requests that computed the artifact
	DiskHits uint64 // memory misses satisfied by the persistent store
	// DiskErrors counts store entries that failed to decode and store
	// writes that failed; both degrade to recomputation, never failure.
	DiskErrors uint64
	// Computed counts artifact computations per stage, so a warm-store run
	// can assert that no Compile or Profile work was redone.
	Computed [NumStages]uint64
}

// ComputedFor returns the number of artifacts computed for one stage.
func (s CacheStats) ComputedFor(st Stage) uint64 {
	if int(st) < len(s.Computed) {
		return s.Computed[st]
	}
	return 0
}

// Add returns the counter-wise sum s+t. The cluster consolidator uses it to
// merge per-shard statistics into one cluster-wide report.
func (s CacheStats) Add(t CacheStats) CacheStats {
	s.Hits += t.Hits
	s.Misses += t.Misses
	s.DiskHits += t.DiskHits
	s.DiskErrors += t.DiskErrors
	for i := range s.Computed {
		s.Computed[i] += t.Computed[i]
	}
	return s
}

// Sub returns the counter-wise difference s−t. Counters only grow, so a
// worker that snapshots stats before and after a job gets that job's exact
// delta with later.Sub(earlier).
func (s CacheStats) Sub(t CacheStats) CacheStats {
	s.Hits -= t.Hits
	s.Misses -= t.Misses
	s.DiskHits -= t.DiskHits
	s.DiskErrors -= t.DiskErrors
	for i := range s.Computed {
		s.Computed[i] -= t.Computed[i]
	}
	return s
}

// entry is one in-flight or completed artifact. Waiters block on ready, so
// concurrent requests for the same key coalesce onto a single computation.
type entry struct {
	ready chan struct{}
	val   any
	err   error
}

// codec (de)serializes one artifact kind for the disk tier. Stages whose
// artifacts are process-bound (ASTs with pointer identity) have no codec
// and stay memory-only.
type codec struct {
	kind   string
	encode func(any) ([]byte, error)
	decode func([]byte) (any, error)
}

// artifactCache is the content-addressed store behind a Pipeline: an
// in-memory map with single-flight coalescing, optionally backed by a
// persistent disk tier shared across processes. The map is keyed by the
// full Key struct — Digest is the printable content address, but using it
// as the map key would turn a 64-bit hash collision into a silently wrong
// artifact.
//
// The atomics are the only copy of the cache's counts: CacheStats reads
// them, and tm exposes them to the telemetry registry at scrape time.
type artifactCache struct {
	mu         sync.Mutex
	m          map[Key]*entry
	disk       store.Backend // nil = memory-only
	hits       atomic.Uint64
	misses     atomic.Uint64
	diskHits   atomic.Uint64
	diskErrors atomic.Uint64
	computed   [NumStages]atomic.Uint64
	tm         *cacheTelemetry // stage timings, wip adoptions, and spans
}

func newArtifactCache(disk store.Backend, reg *telemetry.Registry, tracer *telemetry.Tracer) *artifactCache {
	c := &artifactCache{m: make(map[Key]*entry), disk: disk}
	c.tm = newCacheTelemetry(reg, tracer, c)
	return c
}

func (c *artifactCache) stats() CacheStats {
	s := CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		DiskHits:   c.diskHits.Load(),
		DiskErrors: c.diskErrors.Load(),
	}
	for i := range c.computed {
		s.Computed[i] = c.computed[i].Load()
	}
	return s
}

// fromDisk tries to satisfy k from the persistent tier. A damaged or
// mismatched entry is a miss; corrupt reports an entry that verified but
// failed to decode, which the caller counts as a disk error.
func (c *artifactCache) fromDisk(k Key, cd *codec) (v any, ok, corrupt bool) {
	// Backend.Get verifies the envelope checksum and canonical key; any
	// transport- or corruption-level damage reads as a miss here and the
	// decode below catches payloads that are valid JSON but wrong shape.
	payload, ok := c.disk.Get(k.Digest(), cd.kind, k.Canonical())
	if !ok {
		return nil, false, false
	}
	v, err := cd.decode(payload)
	return v, err == nil, err != nil
}

// toDisk writes a freshly computed artifact through to the persistent
// tier. Failures are counted, not propagated: the store is a cache.
func (c *artifactCache) toDisk(k Key, cd *codec, v any) {
	if c.disk == nil || cd == nil {
		return
	}
	payload, err := cd.encode(v)
	if err == nil {
		err = c.disk.Put(k.Digest(), cd.kind, k.Canonical(), payload)
	}
	if err != nil {
		c.diskErrors.Add(1)
	}
}

// do returns the artifact for k, computing it with fn at most once across
// all concurrent callers: it is the one-key call of doMany.
func (c *artifactCache) do(ctx context.Context, k Key, cd *codec, fn func(context.Context) (any, error)) (any, error) {
	vs, err := c.doMany(ctx, []Key{k}, cd, func(ctx context.Context, _ []int) ([]any, error) {
		v, err := fn(ctx)
		return []any{v}, err
	})
	if err != nil {
		return nil, err
	}
	return vs[0], nil
}

// slot is one key of a doMany call that is not resolved yet. e is its
// memory entry once the call holds one: its own, or another caller's to
// wait for. marker names the cross-process in-progress marker the call
// holds for the key ("" = none), and waited records that the call waited
// on another process's marker for it, so a disk hit on the next claim
// counts as an adoption.
type slot struct {
	i      int
	e      *entry
	marker string
	waited bool
}

// doMany returns the artifacts for keys, in key order, computing each at
// most once across all concurrent callers — in this process, and in every
// process sharing the store. Each key resolves from memory, then disk
// (when cd and a store are configured), then computation with a
// write-through to disk. Every key the call claims is computed by one call
// of fn, which receives their indexes (into keys) and returns their
// artifacts in that order.
//
// A key whose memory entry another caller owns, or whose in-progress
// marker another process holds, is waited for only after the call's own
// claims are computed and settled, so two overlapping batches never wait
// on each other while holding claims. When that other computation fails
// (the marker goes without an artifact), or its owner was canceled and
// this caller was not, the key goes round again under a claim of this
// call's own: the pipeline is shared, and one run's cancel must not fail
// an unrelated run's jobs. Failed computations are not cached.
//
// fn receives the context to run under: when tracing is enabled this is
// the first computed key's span context, so nested stage calls made
// inside fn parent their spans under it.
func (c *artifactCache) doMany(ctx context.Context, keys []Key, cd *codec, fn func(ctx context.Context, idx []int) ([]any, error)) ([]any, error) {
	vals := make([]any, len(keys))
	todo := make([]slot, len(keys))
	for i := range todo {
		todo[i].i = i
	}
	var shared []slot
	for len(todo) > 0 {
		var owned, foreign []slot
		for _, s := range todo {
			k := keys[s.i]
			if s.e == nil {
				c.mu.Lock()
				if e, ok := c.m[k]; ok {
					c.mu.Unlock()
					c.hits.Add(1)
					shared = append(shared, slot{i: s.i, e: e})
					continue
				}
				s.e = &entry{ready: make(chan struct{})}
				c.m[k] = s.e
				c.mu.Unlock()
			}
			v, hit, busy, marker := c.claim(k, cd)
			switch {
			case hit:
				c.diskHits.Add(1)
				if s.waited {
					c.tm.wipAdopted.Inc()
				}
				s.e.val, vals[s.i] = v, v
				close(s.e.ready)
			case busy:
				foreign = append(foreign, s)
			default:
				s.marker = marker
				owned = append(owned, s)
			}
		}

		err := c.computeClaims(ctx, keys, cd, owned, fn, vals)
		for _, s := range foreign {
			if err == nil {
				err = c.awaitMarker(ctx, keys[s.i])
			}
		}
		if err != nil {
			for _, s := range foreign {
				s.e.err = err
				c.settle(keys[s.i], s.e)
			}
			return nil, err
		}
		// The markers are gone: claim those keys again. Shared entries are
		// waited for once the call holds no open claim, since one of them
		// may be the call's own (a key listed twice).
		if todo = foreign; len(todo) > 0 {
			for j := range todo {
				todo[j].waited = true
			}
			continue
		}
		for _, s := range shared {
			var retry bool
			if vals[s.i], retry, err = s.e.await(ctx); err != nil {
				return nil, err
			}
			if retry {
				todo = append(todo, slot{i: s.i})
			}
		}
		shared = nil
	}
	return vals, nil
}

// await waits for an entry another caller owns. retry reports that its
// owner was canceled and this caller was not: the failed entry has left
// the map, and the caller resolves the key afresh.
func (e *entry) await(ctx context.Context) (v any, retry bool, err error) {
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		return nil, true, nil
	}
	return e.val, false, e.err
}

// claim runs the claim sequence for a key whose memory entry the caller
// holds: probe the disk tier, then take the key's in-progress marker, then
// probe again, since another process may have written the artifact and
// released its marker in between. On a disk hit it returns the artifact.
// Otherwise busy reports that another process holds the marker, or the
// caller computes the artifact holding marker: "" on a memory-only stage,
// or after a store flake on the marker path, which degrades to an
// uncoordinated compute — the marker is a dedup optimization, never a
// correctness gate. An entry that fails to decode counts as one disk
// error, however many probes read it.
func (c *artifactCache) claim(k Key, cd *codec) (v any, hit, busy bool, marker string) {
	if c.disk == nil || cd == nil {
		return nil, false, false, ""
	}
	v, hit, corrupt := c.fromDisk(k, cd)
	if !hit {
		marker = wipName(k)
		switch err := c.disk.CreateExclusive(marker, []byte(k.Canonical())); {
		case errors.Is(err, fs.ErrExist):
			busy, marker = true, ""
		case err != nil:
			c.diskErrors.Add(1)
			marker = ""
		default:
			var bad bool
			if v, hit, bad = c.fromDisk(k, cd); hit {
				c.disk.Remove(marker)
				marker = ""
			}
			corrupt = corrupt || bad
		}
	}
	if corrupt {
		c.diskErrors.Add(1)
	}
	return v, hit, busy, marker
}

// computeClaims computes every owned slot of a doMany call with one call
// of fn, heartbeating their markers meanwhile; it writes the artifacts
// through, releases the markers, and settles the entries. Accounting stays
// per key: each key counts as one miss and one computation, gets its own
// span covering the shared computation, and observes an equal share of its
// wall time in the stage histogram, so the histogram's sum stays the time
// actually spent. fn runs under the first key's span context, so nested
// stage calls trace as that span's children.
func (c *artifactCache) computeClaims(ctx context.Context, keys []Key, cd *codec, owned []slot, fn func(context.Context, []int) ([]any, error), vals []any) error {
	if len(owned) == 0 {
		return nil
	}
	idx := make([]int, len(owned))
	spans := make([]*telemetry.Span, len(owned))
	var markers []string
	fnCtx := ctx
	c.misses.Add(uint64(len(owned)))
	for j, s := range owned {
		idx[j] = s.i
		if s.marker != "" {
			markers = append(markers, s.marker)
		}
		k := keys[s.i]
		if int(k.Stage) < len(c.computed) {
			c.computed[k.Stage].Add(1)
		}
		sctx, span := c.tm.tracer.Start(ctx, k.Stage.String())
		span.SetAttr("workload", k.Workload)
		if k.ISA != "" {
			span.SetAttr("isa", k.ISA)
		}
		if k.Clone {
			span.SetAttr("clone", "true")
		}
		if len(owned) > 1 {
			span.SetAttr("batch", strconv.Itoa(len(owned)))
		}
		if j == 0 {
			fnCtx = sctx
		}
		spans[j] = span
	}

	stop := c.heartbeat(markers)
	start := time.Now()
	vs, err := fn(fnCtx, idx)
	share := time.Since(start).Seconds() / float64(len(owned))
	for j, s := range owned {
		k := keys[s.i]
		if int(k.Stage) < len(c.computed) {
			c.tm.seconds[k.Stage].Observe(share)
		}
		if err != nil {
			spans[j].SetAttr("error", err.Error())
		}
		spans[j].End()
	}
	for j, s := range owned {
		if s.e.err = err; err == nil {
			c.toDisk(keys[s.i], cd, vs[j])
			s.e.val, vals[s.i] = vs[j], vs[j]
		}
	}
	stop()
	for _, m := range markers {
		c.disk.Remove(m)
	}
	for _, s := range owned {
		c.settle(keys[s.i], s.e)
	}
	return err
}

// settle publishes a finished entry to its waiters, first dropping it
// from the map when it failed (failed computations are not cached).
func (c *artifactCache) settle(k Key, e *entry) {
	if e.err != nil {
		c.mu.Lock()
		delete(c.m, k)
		c.mu.Unlock()
	}
	close(e.ready)
}

// The in-progress marker timings. A process that vanishes mid-computation
// (crash, SIGKILL) leaves its marker behind; waiters steal it once the
// heartbeat goes stale, so wipTTL bounds how long a crash can stall other
// processes. Variables rather than constants so tests can compress time.
var (
	wipTTL  = 30 * time.Second
	wipPoll = 25 * time.Millisecond
)

// wipName is the in-progress marker path for one artifact.
func wipName(k Key) string {
	return store.WIPDir + "/" + k.Digest() + ".json"
}

// awaitMarker waits while another process holds k's in-progress marker.
// Processes sharing a store — including ones on different machines
// sharing it over HTTP — thereby single-flight a computation exactly like
// goroutines sharing the in-memory map do. It returns once the marker is
// gone, because its owner wrote the artifact through and released it or
// failed, or once the owner stopped heartbeating for wipTTL and the stale
// marker was stolen; either way the caller goes back to the claim step.
// It returns the context's error if the wait is canceled.
func (c *artifactCache) awaitMarker(ctx context.Context, k Key) error {
	marker := wipName(k)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wipPoll):
		}
		fi, err := c.disk.Stat(marker)
		if err != nil {
			return nil
		}
		if time.Since(fi.ModTime) > wipTTL {
			c.disk.Remove(marker)
			return nil
		}
	}
}

// heartbeat touches every marker each wipTTL/3 until the returned stop
// function is called (stop waits for the heartbeat goroutine to exit).
func (c *artifactCache) heartbeat(markers []string) (stop func()) {
	if len(markers) == 0 {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(wipTTL / 3)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				for _, m := range markers {
					c.disk.Touch(m)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
