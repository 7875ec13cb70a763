package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/compiler"
	"repro/internal/generate"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// Worker is one lease-execute-ack participant. Any number of workers (in
// one process or many) may drain one queue; the store they share guarantees
// a re-executed job recomputes nothing that was already acked.
type Worker struct {
	// Queue is the job queue to drain.
	Queue *Queue
	// Pipe executes jobs. It must be built from the manifest's Spec (see
	// PipelineOptions) and backed by the queue's store, or the worker's
	// artifacts would not land where the dispatch's dedup looks.
	Pipe *pipeline.Pipeline
	// ID names the worker in lease files and results.
	ID string
	// Dispatch, when non-empty, is the Spec.Digest of the dispatch the
	// pipeline was built for. A claimed job carrying a different dispatch
	// digest — the queue was reset and re-dispatched under this worker —
	// is released and aborts the run, since executing it with the old
	// pipeline options would ack jobs whose artifacts were never computed
	// under the new spec's keys.
	Dispatch string
	// TTL is the lease expiry the worker enforces on others and the
	// heartbeat budget it must stay within itself (0 = DefaultLeaseTTL).
	TTL time.Duration
	// Poll is the idle polling interval (0 = DefaultPoll).
	Poll time.Duration
	// OnJob, when non-nil, observes every acked result (for CLI logging).
	OnJob func(Result)
	// Metrics, when non-nil, receives job-lifecycle telemetry (claims,
	// acks, ack retries, reclaims, panics, job durations).
	Metrics *Metrics

	// exec, when non-nil, replaces the real job execution — a test hook
	// so supervisor and chaos tests can script job behavior (block, fail,
	// panic) without running the pipeline.
	exec func(context.Context, Job) error
}

// Summary reports one worker's run.
type Summary struct {
	// Jobs counts acked jobs, Failed the subset that failed.
	Jobs   int
	Failed int
	// Panics counts jobs whose execution panicked. The first panic of a
	// job releases its lease for an immediate retry (the panic may be a
	// transient of this process); a job that panics again is acked as
	// failed so the queue still converges.
	Panics int
}

// PipelineOptions translates a dispatch spec into the pipeline options a
// worker must run with, so every participant derives identical artifact
// keys. The caller supplies Workers and Store (the per-process knobs the
// spec deliberately does not pin).
func PipelineOptions(spec Spec) (pipeline.Options, error) {
	target := isa.ByName(spec.ProfileISA)
	if target == nil {
		return pipeline.Options{}, fmt.Errorf("cluster: unknown profiling ISA %q", spec.ProfileISA)
	}
	if spec.ProfileLevel < 0 || spec.ProfileLevel >= len(compiler.Levels) {
		return pipeline.Options{}, fmt.Errorf("cluster: profiling level %d out of range", spec.ProfileLevel)
	}
	return pipeline.Options{
		Seed:         spec.Seed,
		TargetDyn:    spec.TargetDyn,
		MaxInstrs:    spec.MaxInstrs,
		ProfileISA:   target,
		ProfileLevel: compiler.Levels[spec.ProfileLevel],
	}, nil
}

// Run drains the queue: claim a job, execute its grid, ack the result,
// repeat. When nothing is pending it reclaims expired leases (recovering
// crashed siblings' jobs) and exits once the queue has converged: the done
// count reaches the manifest total. (Counts' per-state reads are not one
// atomic snapshot — a job mid-rename is briefly in neither state — so
// "pending and leased both empty" would be a racy exit condition; the done
// count is monotone. Without a manifest the emptiness heuristic is all
// there is.) On cancellation a held lease is released back to pending so
// the job is immediately re-claimable.
func (w *Worker) Run(ctx context.Context) (Summary, error) {
	var sum Summary
	ttl, poll := w.TTL, w.Poll
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if poll <= 0 {
		poll = DefaultPoll
	}
	total := -1
	if m, err := w.Queue.Manifest(); err != nil {
		return sum, err
	} else if m != nil {
		total = m.Total
	}
	var stalledSince time.Time
	panickedJobs := make(map[string]bool)
	for {
		if err := ctx.Err(); err != nil {
			return sum, err
		}
		lease, err := w.Queue.Claim(w.ID)
		if err != nil {
			return sum, err
		}
		if lease == nil {
			if n, err := w.Queue.Reclaim(ttl); err != nil {
				return sum, err
			} else if n > 0 {
				w.Metrics.Reclaimed(n)
				continue // recovered jobs are pending again: go claim
			}
			c, err := w.Queue.Counts()
			if err != nil {
				return sum, err
			}
			if total >= 0 && c.Done >= total {
				return sum, nil // queue converged
			}
			if total < 0 && c.Pending == 0 && c.Leased == 0 {
				return sum, nil // no manifest: best-effort emptiness check
			}
			if c.Pending == 0 && c.Leased == 0 {
				// Fewer jobs exist than the manifest promises: the
				// residue of an interrupted dispatch, not a transient
				// mid-rename window (see errStalled), tolerated for one
				// lease TTL before giving up.
				if stalledSince.IsZero() {
					stalledSince = time.Now()
				} else if time.Since(stalledSince) >= ttl {
					return sum, errStalled(c.Done, total)
				}
			} else {
				stalledSince = time.Time{}
			}
			select { // work is in flight elsewhere: wait for it or for a crash
			case <-ctx.Done():
				return sum, ctx.Err()
			case <-time.After(poll):
			}
			continue
		}
		stalledSince = time.Time{}
		w.Metrics.Claim()
		if w.Dispatch != "" && lease.Job.Dispatch != w.Dispatch {
			lease.Release()
			return sum, fmt.Errorf("cluster: queue was re-dispatched (job %s belongs to dispatch %s, this worker was built for %s); restart the worker",
				lease.Job.Workload, lease.Job.Dispatch, w.Dispatch)
		}
		if w.Queue.HasResult(lease.Job.ID()) {
			lease.Drop() // stale pending duplicate from a reclaim race
			continue
		}
		res, panicked, err := w.execute(ctx, lease, ttl)
		if err != nil { // canceled mid-job: hand the job back
			lease.Release()
			return sum, err
		}
		if panicked {
			sum.Panics++
			w.Metrics.Panic()
			if id := lease.Job.ID(); !panickedJobs[id] {
				// First panic of this job: the lease must not leak until
				// TTL expiry. Release it for an immediate retry — by us or
				// any other node — in case the panic was transient here.
				panickedJobs[id] = true
				lease.Release()
				continue
			}
			// Second panic of the same job: deterministic. Fall through and
			// ack it as failed so the queue converges instead of bouncing
			// the job between panicking workers forever.
		}
		if err := w.ack(lease, res); err != nil {
			return sum, err
		}
		sum.Jobs++
		if res.Err != "" {
			sum.Failed++
		}
		if w.OnJob != nil {
			w.OnJob(res)
		}
	}
}

// Ack retry policy: transient store errors (an HTTP backend riding out a
// blip, a full-disk hiccup) are retried with exponential backoff before
// the worker gives the job back. Variables so tests can compress time.
var (
	ackAttempts = 6
	ackBackoff  = 50 * time.Millisecond
)

// ack records the result, retrying transient store failures with
// exponential backoff. If the store stays broken the lease is released —
// the job returns to pending for a healthier node — and the error is
// returned to stop this worker.
func (w *Worker) ack(lease *Lease, res Result) error {
	var err error
	delay := ackBackoff
	for attempt := 0; attempt < ackAttempts; attempt++ {
		if err = lease.Ack(res); err == nil {
			w.Metrics.Acked(time.Duration(res.Millis)*time.Millisecond, res.Err != "")
			return nil
		}
		w.Metrics.AckRetry()
		time.Sleep(delay)
		delay *= 2
	}
	lease.Release()
	return fmt.Errorf("cluster: ack failed after %d attempts: %w", ackAttempts, err)
}

// execute runs one job's (ISA, level) grid through the pipeline,
// heartbeating the lease in the background. Job failures are recorded in
// the Result, not returned: only cancellation aborts the worker. The
// second return reports that the job's execution panicked (recovered into
// the Result), which Run turns into release-and-retry instead of an ack.
func (w *Worker) execute(ctx context.Context, lease *Lease, ttl time.Duration) (Result, bool, error) {
	res := Result{Job: lease.Job, Worker: w.ID}

	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				lease.Heartbeat() // a lost lease only means a benign redo
			}
		}
	}()
	defer func() { stopHB(); <-hbDone }()

	start := time.Now()
	var before pipeline.CacheStats
	if w.Pipe != nil { // nil only under the exec test hook
		before = w.Pipe.CacheStats()
	}
	err := w.runRecovered(ctx, lease.Job)
	if w.Pipe != nil {
		res.Stats = w.Pipe.CacheStats().Sub(before)
	}
	res.Millis = time.Since(start).Milliseconds()
	var pe *pipeline.PanicError
	panicked := errors.As(err, &pe)
	if err != nil {
		if ctx.Err() != nil && !panicked {
			return res, false, ctx.Err()
		}
		res.Err = err.Error()
	}
	return res, panicked, nil
}

// runRecovered executes one job, converting a panic on the calling
// goroutine into a *pipeline.PanicError. Panics inside pipeline stage
// fan-out arrive already converted (pipeline.Map recovers its pool
// goroutines — a recover here could not reach those); this guards the
// worker's own frame so no panic path leaks the lease until TTL expiry.
func (w *Worker) runRecovered(ctx context.Context, j Job) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &pipeline.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if w.exec != nil {
		return w.exec(ctx, j)
	}
	return w.runJob(ctx, j)
}

// runJob fans the job's grid points out on the pipeline's worker pool.
// Generate jobs dispatch before the workload lookup: their Workload field
// is a synthetic point label ("gen[i]"), not a registry name.
func (w *Worker) runJob(ctx context.Context, j Job) error {
	if j.Kind == KindGenerate {
		if j.Gen == nil {
			return fmt.Errorf("cluster: generate job %s carries no spec", j.Workload)
		}
		return generate.RealizePoint(ctx, w.Pipe, j.Gen, j.GenIndex)
	}
	wl := workloads.ByName(j.Workload)
	if wl == nil {
		return fmt.Errorf("cluster: unknown workload %q", j.Workload)
	}
	if j.Kind == KindExplore {
		return w.runExploreJob(ctx, wl, j)
	}
	if j.Kind != "" {
		return fmt.Errorf("cluster: unknown job kind %q (mixed binaries?)", j.Kind)
	}
	return pipeline.ForEach(ctx, w.Pipe, j.Points(), func(ctx context.Context, pt Point) error {
		target := isa.ByName(pt.ISA)
		if target == nil {
			return fmt.Errorf("cluster: unknown ISA %q", pt.ISA)
		}
		if pt.Level < 0 || pt.Level >= len(compiler.Levels) {
			return fmt.Errorf("cluster: level %d out of range", pt.Level)
		}
		_, err := w.Pipe.PairAt(ctx, wl, target, compiler.Levels[pt.Level])
		return err
	})
}

// runExploreJob executes one exploration shard: simulate the workload's
// original and clone on every (machine configuration, level) cell
// through the pipeline's cached Simulate stage, batched per program by
// pipeline.SimulateCells exactly as explore.RunWorkload does. Every
// simulation (and the compiles, profile, and synthesis underneath) lands
// in the shared store, so the dispatcher can aggregate the sweep report
// warm.
func (w *Worker) runExploreJob(ctx context.Context, wl *workloads.Workload, j Job) error {
	var cells []pipeline.SimCell
	for _, spec := range j.Sims {
		cfg, err := spec.Config()
		if err != nil {
			return fmt.Errorf("cluster: explore job %s: %w", j.Workload, err)
		}
		for _, l := range j.Levels {
			if l < 0 || l >= len(compiler.Levels) {
				return fmt.Errorf("cluster: level %d out of range", l)
			}
			cells = append(cells, pipeline.SimCell{Workload: wl, Level: compiler.Levels[l], Config: cfg})
		}
	}
	_, err := w.Pipe.SimulateCells(ctx, cells, j.SimMaxInstrs)
	return err
}
