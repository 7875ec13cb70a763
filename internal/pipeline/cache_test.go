package pipeline

// In-package tests for the artifact cache's one resolution path, driven
// directly with synthetic keys and artifacts: waiting on another
// process's in-progress marker inside a batch, and a waiter taking over a
// computation whose owner was canceled.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/store"
)

// codecText persists string artifacts.
var codecText = &codec{kind: store.KindSim,
	encode: func(v any) ([]byte, error) { return json.Marshal(v) },
	decode: func(b []byte) (any, error) {
		var s string
		err := json.Unmarshal(b, &s)
		return s, err
	},
}

// TestWIPBatchWaitsOnForeignMarker resolves a batch in which another
// process holds the marker of one key, listed twice. The batch computes
// the key it can claim first; the foreign owner then fails (its marker
// goes without an artifact), and the batch claims and computes the key
// itself, resolving the duplicate onto that computation.
func TestWIPBatchWaitsOnForeignMarker(t *testing.T) {
	savedPoll := wipPoll
	wipPoll = 5 * time.Millisecond
	defer func() { wipPoll = savedPoll }()

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newArtifactCache(st, nil, nil)
	k0 := Key{Stage: StageSimulate, Workload: "k0"}
	k1 := Key{Stage: StageSimulate, Workload: "k1"}
	if err := st.CreateExclusive(wipName(k1), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	var calls [][]int
	vals, err := c.doMany(context.Background(), []Key{k0, k1, k1}, codecText,
		func(_ context.Context, idx []int) ([]any, error) {
			if len(calls) == 0 {
				st.Remove(wipName(k1)) // the foreign owner fails
			}
			calls = append(calls, append([]int(nil), idx...))
			out := make([]any, len(idx))
			for j, i := range idx {
				out[j] = fmt.Sprint("v", i)
			}
			return out, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := []any{"v0", "v1", "v1"}; !reflect.DeepEqual(vals, want) {
		t.Errorf("values %v, want %v", vals, want)
	}
	if want := [][]int{{0}, {1}}; !reflect.DeepEqual(calls, want) {
		t.Errorf("computations %v, want %v", calls, want)
	}
	if s := c.stats(); s.Misses != 2 || s.Hits != 1 || s.DiskHits != 0 || s.DiskErrors != 0 {
		t.Errorf("stats %+v, want 2 misses and 1 hit", s)
	}
	if _, err := st.Stat(wipName(k1)); err == nil {
		t.Error("marker still present after the batch")
	}
}

// TestPipelineCacheWaiterRetriesCanceledOwner coalesces a second caller
// onto a computation whose owner is then canceled: the second caller was
// not canceled, so it must compute the artifact itself rather than
// inherit the owner's cancellation.
func TestPipelineCacheWaiterRetriesCanceledOwner(t *testing.T) {
	c := newArtifactCache(nil, nil, nil)
	k := Key{Stage: StageParse, Workload: "w"}
	ownerCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	ownerErr := make(chan error, 1)
	go func() {
		_, err := c.do(ownerCtx, k, nil, func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		ownerErr <- err
	}()
	<-started

	type result struct {
		v   any
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		v, err := c.do(context.Background(), k, nil, func(context.Context) (any, error) {
			return "mine", nil
		})
		waiter <- result{v, err}
	}()
	for c.hits.Load() == 0 { // the waiter found the owner's entry
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner returned %v, want context.Canceled", err)
	}
	r := <-waiter
	if r.err != nil || r.v != "mine" {
		t.Fatalf("waiter got %v, %v; want its own artifact", r.v, r.err)
	}
	if s := c.stats(); s.ComputedFor(StageParse) != 2 || s.Hits != 1 {
		t.Errorf("stats %+v, want 2 computations and 1 hit", s)
	}
}
