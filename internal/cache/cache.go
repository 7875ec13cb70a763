// Package cache implements set-associative LRU data-cache simulation.
//
// The paper measures per-access hit/miss ratios by simulating a cache during
// profiling (citing Hill & Smith's single-pass multi-configuration
// evaluation); MultiSim provides exactly that: one pass over the address
// stream updates a whole range of cache configurations, which regenerates
// the 1KB–32KB sweeps of Figs. 7 and 8.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	Name     string
	Size     int // total bytes
	LineSize int // bytes per line
	Assoc    int // ways per set
}

// Validate checks structural soundness.
func (c Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.Size%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line*assoc", c.Size)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	return nil
}

// Stats accumulates access counts.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// HitRate returns the fraction of accesses that hit (1.0 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return 1 - float64(s.Misses)/float64(s.Accesses)
}

// MissRate returns the fraction of accesses that missed.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// line is one cache way. key holds the line's tag plus one, so the zero
// line is invalid without a separate flag and a way fits in 16 bytes; the
// key wraps only for the all-ones address under one-byte lines, which no
// simulated data address reaches.
type line struct {
	key  uint64
	used uint64 // LRU timestamp
}

// Cache is a set-associative LRU cache model. It tracks presence only (no
// data), which is all the framework needs. Stats counts load accesses
// only; stores fill lines like any access but accumulate in StoreStats, so
// the load hit rates reports quote are not diluted by store fills.
type Cache struct {
	cfg        Config
	lines      []line // set-major: set s owns lines[s*assoc : (s+1)*assoc]
	assoc      uint64
	setShift   uint
	setMask    uint64
	tick       uint64
	Stats      Stats
	StoreStats Stats
}

// New builds a cache; it panics on invalid geometry (configs are
// programmer-supplied constants).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nsets))
	}
	c := &Cache{cfg: cfg, lines: make([]line, nsets*cfg.Assoc), assoc: uint64(cfg.Assoc)}
	c.setShift = uint(log2(cfg.LineSize))
	c.setMask = uint64(nsets - 1)
	return c
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Access touches addr, returns whether it hit, and updates LRU state,
// filling the line on a miss. The access counts into Stats (the load-side
// statistics).
func (c *Cache) Access(addr uint64) bool {
	return c.access(addr, &c.Stats)
}

// AccessStore touches addr on behalf of a store: identical line fill and
// LRU behavior, but the access counts into StoreStats so store traffic
// cannot skew the load hit rates.
func (c *Cache) AccessStore(addr uint64) bool {
	return c.access(addr, &c.StoreStats)
}

func (c *Cache) access(addr uint64, st *Stats) bool {
	c.tick++
	st.Accesses++
	tag := addr >> c.setShift
	first := (tag & c.setMask) * c.assoc
	lines := c.lines[first : first+c.assoc]
	key := tag + 1
	for i := range lines {
		if lines[i].key == key {
			lines[i].used = c.tick
			return true
		}
	}
	st.Misses++
	victim := 0
	for i := range lines {
		if lines[i].key == 0 {
			victim = i
			break
		}
		if lines[i].used < lines[victim].used {
			victim = i
		}
	}
	lines[victim] = line{key: key, used: c.tick}
	return false
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.lines)
	c.tick = 0
	c.Stats = Stats{}
	c.StoreStats = Stats{}
}

// MultiSim evaluates many cache configurations in a single pass over the
// address stream.
type MultiSim struct {
	Caches []*Cache
}

// NewMultiSim builds simulators for each configuration.
func NewMultiSim(cfgs []Config) *MultiSim {
	ms := &MultiSim{}
	for _, cfg := range cfgs {
		ms.Caches = append(ms.Caches, New(cfg))
	}
	return ms
}

// Access feeds one address to every configuration.
func (ms *MultiSim) Access(addr uint64) {
	for _, c := range ms.Caches {
		c.Access(addr)
	}
}

// SweepConfigs returns the paper's data-cache sweep: sizes 1KB..32KB,
// 2-way, 32-byte lines (Figs. 7 and 8).
func SweepConfigs() []Config {
	var out []Config
	for _, kb := range []int{1, 2, 4, 8, 16, 32} {
		out = append(out, Config{
			Name:     fmt.Sprintf("%dKB", kb),
			Size:     kb * 1024,
			LineSize: 32,
			Assoc:    2,
		})
	}
	return out
}

// Hierarchy is a two-level data-cache hierarchy with fixed latencies, used
// by the CPU timing models.
type Hierarchy struct {
	L1, L2               *Cache
	L1Lat, L2Lat, MemLat int
}

// AccessLatency touches both levels as needed and returns the load-to-use
// latency in cycles.
func (h *Hierarchy) AccessLatency(addr uint64) int {
	if h.L1.Access(addr) {
		return h.L1Lat
	}
	if h.L2.Access(addr) {
		return h.L2Lat
	}
	return h.MemLat
}

// StoreLatency is AccessLatency for the store side: lines fill and LRU
// state updates exactly as for a load at the same address, but the
// accesses count into each level's StoreStats, keeping the reported load
// hit rates honest. The returned latency is how long the store occupies
// its store-queue entry before the written line is globally visible.
func (h *Hierarchy) StoreLatency(addr uint64) int {
	if h.L1.AccessStore(addr) {
		return h.L1Lat
	}
	if h.L2.AccessStore(addr) {
		return h.L2Lat
	}
	return h.MemLat
}
