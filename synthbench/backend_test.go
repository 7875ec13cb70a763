package main

import (
	"bytes"
	"testing"

	"repro/internal/store"
)

func TestTimedBackendCountsAndPassesThrough(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := newTimedBackend(st)
	a := []byte(`{"first":"payload"}`)
	c := []byte(`{"second":"longer payload"}`)
	if err := b.Put("d1", "profile", "k1", a); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("d2", "program", "k2", c); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get("d1", "profile", "k1")
	if !ok || !bytes.Equal(got, a) {
		t.Fatalf("Get(d1) = %q, %v; want %q, true", got, ok, a)
	}
	if _, ok := b.Get("d3", "profile", "k3"); ok {
		t.Fatal("Get of a missing entry reported a hit")
	}
	if !b.Has("d2", "program", "k2") || b.Has("d3", "program", "k3") {
		t.Fatal("Has does not pass through")
	}
	// The decorator must leave the store exactly as the bare store would.
	if got, ok := st.Get("d2", "program", "k2"); !ok || !bytes.Equal(got, c) {
		t.Fatalf("underlying store holds %q, %v", got, ok)
	}
	if err := b.WriteFile("wip/x.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadFile("wip/x.json"); err != nil {
		t.Fatalf("coordination file not passed through: %v", err)
	}

	s := b.stats()
	if s.Gets != 2 || s.GetHits != 1 || s.Puts != 2 || s.Has != 2 {
		t.Errorf("counts = %d gets (%d hits), %d puts, %d has; want 2 (1), 2, 2", s.Gets, s.GetHits, s.Puts, s.Has)
	}
	if s.ReadBytes != uint64(len(a)) || s.WriteBytes != uint64(len(a)+len(c)) {
		t.Errorf("bytes = %d read, %d written; want %d, %d", s.ReadBytes, s.WriteBytes, len(a), len(a)+len(c))
	}
	if s.GetSec <= 0 || s.PutSec <= 0 || s.HasSec <= 0 {
		t.Errorf("times not recorded: %+v", s)
	}
}
