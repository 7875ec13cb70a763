package main

import (
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// timedBackend decorates a store.Backend: it counts and times the artifact
// operations (Get, Put, Has) and the payload bytes they move, and passes
// every call, coordination files included, through unchanged.
type timedBackend struct {
	store.Backend

	gets, getHits, puts, hass atomic.Uint64
	getNs, putNs, hasNs       atomic.Int64
	readBytes, writeBytes     atomic.Uint64
}

func newTimedBackend(b store.Backend) *timedBackend { return &timedBackend{Backend: b} }

func (b *timedBackend) Get(digest, kind, key string) ([]byte, bool) {
	start := time.Now()
	payload, ok := b.Backend.Get(digest, kind, key)
	b.getNs.Add(int64(time.Since(start)))
	b.gets.Add(1)
	if ok {
		b.getHits.Add(1)
		b.readBytes.Add(uint64(len(payload)))
	}
	return payload, ok
}

func (b *timedBackend) Put(digest, kind, key string, payload []byte) error {
	start := time.Now()
	err := b.Backend.Put(digest, kind, key, payload)
	b.putNs.Add(int64(time.Since(start)))
	b.puts.Add(1)
	if err == nil {
		b.writeBytes.Add(uint64(len(payload)))
	}
	return err
}

func (b *timedBackend) Has(digest, kind, key string) bool {
	start := time.Now()
	ok := b.Backend.Has(digest, kind, key)
	b.hasNs.Add(int64(time.Since(start)))
	b.hass.Add(1)
	return ok
}

// storeStats is a snapshot of a timedBackend's counters.
type storeStats struct {
	Gets, GetHits, Puts, Has uint64
	GetSec, PutSec, HasSec   float64
	ReadBytes, WriteBytes    uint64
}

func (b *timedBackend) stats() storeStats {
	return storeStats{
		Gets: b.gets.Load(), GetHits: b.getHits.Load(), Puts: b.puts.Load(), Has: b.hass.Load(),
		GetSec:    time.Duration(b.getNs.Load()).Seconds(),
		PutSec:    time.Duration(b.putNs.Load()).Seconds(),
		HasSec:    time.Duration(b.hasNs.Load()).Seconds(),
		ReadBytes: b.readBytes.Load(), WriteBytes: b.writeBytes.Load(),
	}
}
