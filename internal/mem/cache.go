// Package mem implements the GPU memory hierarchy substrate: per-CU L1
// caches, a banked shared L2 running in the fixed uncore clock domain, and
// a DRAM model with fixed latency and bounded bandwidth.
//
// Everything in this package is plain data (flat slices, no pointers
// between components), so the whole hierarchy can be deep-copied by
// Clone for the fork-pre-execute oracle. Tag arrays — the bulk of the
// state — are copy-on-write: Clone shares them under a refcount and the
// first mutation on either side privatizes them, so a fork that never
// touches a cache never pays for copying it. Timing decisions (when a
// bank dequeues, when a response lands) are made in integer picoseconds
// using the uncore frequency, and are fully deterministic.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// tagBuf is one tag array together with the refcount of the Cache values
// sharing it. Pooling the pair as a unit keeps the fork hot path off the
// allocator: privatizing reuses both the array and its counter, and
// recycling puts back a pointer (no slice header to box).
type tagBuf struct {
	ref atomic.Int32
	ent []uint64
}

// tagPools recycles privatized tag buffers, keyed by array length.
// Fork-heavy users (the oracle samples ten clones per epoch, each
// privatizing the banks it touches) would otherwise churn megabytes of
// garbage per epoch; a buffer whose refcount hits zero goes back to its
// pool and the next privatization takes it from there.
var tagPools sync.Map // int → *sync.Pool of *tagBuf

func tagPoolFor(n int) *sync.Pool {
	if p, ok := tagPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := tagPools.LoadOrStore(n, &sync.Pool{})
	return p.(*sync.Pool)
}

// newTagBuf returns a buffer of length n held by one owner. Its contents
// are arbitrary (it may come from the pool), so callers must overwrite
// it fully.
func newTagBuf(pool *sync.Pool, n int) *tagBuf {
	b, _ := pool.Get().(*tagBuf)
	if b == nil {
		b = &tagBuf{ent: make([]uint64, n)}
	}
	b.ref.Store(1)
	return b
}

// drop gives up one share of b, recycling it when it was the last.
func (b *tagBuf) drop(pool *sync.Pool) {
	if b.ref.Add(-1) == 0 {
		pool.Put(b)
	}
}

// Cache is a set-associative cache with true-LRU replacement. It models
// tags only — the simulator never materializes data — and is a value type
// whose Clone snapshots the full tag state. The snapshot is copy-on-write:
// the tag array is shared under a refcount until either side mutates it,
// at which point the mutator privatizes its own copy. Sharing is safe
// even when clones run on other goroutines (the refcount is atomic and a
// shared array is never written in place), which is what lets multiple
// oracle samplers fork the same quiescent parent GPU concurrently.
//
// Each way is one packed word — tag in the low half, LRU stamp in the
// high half — so a 16-way set scan touches half the host cache lines a
// split tag/stamp layout would. The 32-bit tag bounds the modeled address
// space at lineBytes<<32 (256 GiB with 64-byte lines); Probe and Fill
// panic beyond it rather than aliasing silently.
type Cache struct {
	sets      uint32
	ways      uint32
	lineShift uint32
	// setMask is sets-1 when the set count is a power of two (the common
	// case), letting setOf mask instead of divide; 0 otherwise.
	setMask uint32
	tick    uint64
	// ent holds sets*ways packed ways: bits [31:0] are the tag (0 =
	// invalid, otherwise lineAddr+1), bits [63:32] the LRU stamp. It is
	// buf.ent, cached here so lookups skip one indirection.
	ent []uint64
	// buf owns ent and counts the Cache values sharing it. Mutators call
	// own, which privatizes the array while the count is above one. A
	// conservative overshoot (two sharers privatizing simultaneously)
	// costs one extra copy, never correctness.
	buf *tagBuf
	// pool is the recycler for buffers of len(ent), resolved once at
	// construction so the privatize/release hot path never touches the
	// global sync.Map.
	pool *sync.Pool
	// hits and misses are cumulative probe outcomes.
	hits, misses int64
}

// GeometryError reports an invalid cache shape passed to NewCache.
type GeometryError struct {
	Sets, Ways, LineBytes int
}

// Error implements error.
func (e *GeometryError) Error() string {
	return fmt.Sprintf("mem: invalid cache geometry (%d sets, %d ways, %d-byte lines): sets and ways must be positive and the line size a power of two",
		e.Sets, e.Ways, e.LineBytes)
}

// NewCache builds a cache with the given geometry. sets and ways must be
// positive; lineBytes must be a power of two. Invalid shapes return a
// *GeometryError.
func NewCache(sets, ways, lineBytes int) (Cache, error) {
	if sets < 1 || ways < 1 || lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return Cache{}, &GeometryError{Sets: sets, Ways: ways, LineBytes: lineBytes}
	}
	shift := uint32(0)
	for 1<<shift != lineBytes {
		shift++
	}
	// The tag array comes from the same size-keyed pool forks privatize
	// into, so a job that releases its GPU hands its arrays to the next
	// job's caches instead of to the garbage collector.
	pool := tagPoolFor(sets * ways)
	c := Cache{
		sets:      uint32(sets),
		ways:      uint32(ways),
		lineShift: shift,
		buf:       newTagBuf(pool, sets*ways),
		pool:      pool,
	}
	c.ent = c.buf.ent
	clear(c.ent)
	if sets&(sets-1) == 0 {
		c.setMask = uint32(sets - 1)
	}
	return c, nil
}

// mustCache is NewCache for geometries already vetted by Config.Validate.
func mustCache(sets, ways, lineBytes int) Cache {
	c, err := NewCache(sets, ways, lineBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// LineBytes returns the cache line size.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.sets) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return int(c.ways) }

// CapacityBytes returns the total capacity.
func (c *Cache) CapacityBytes() int {
	return int(c.sets) * int(c.ways) * (1 << c.lineShift)
}

// Hits returns the cumulative hit count.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the cumulative miss count.
func (c *Cache) Misses() int64 { return c.misses }

func (c *Cache) setOf(addr uint64) uint32 {
	if c.setMask != 0 {
		return uint32(addr>>c.lineShift) & c.setMask
	}
	return uint32((addr >> c.lineShift) % uint64(c.sets))
}

// tagOf returns addr's packed tag (lineAddr+1, never 0).
func (c *Cache) tagOf(addr uint64) uint64 {
	line := addr>>c.lineShift + 1
	if line > 0xffffffff {
		panic(fmt.Sprintf("mem: address %#x beyond the %d GiB model limit", addr, uint64(1)<<(c.lineShift+2)))
	}
	return line
}

// bump advances the LRU clock, renormalizing stamps in the (practically
// unreachable) event the 32-bit stamp field would overflow. Halving every
// stamp preserves their relative order up to ties, which the way index
// then breaks deterministically.
func (c *Cache) bump() uint64 {
	c.tick++
	if c.tick > 0xffffffff {
		c.own()
		for i, e := range c.ent {
			c.ent[i] = e>>33<<32 | e&0xffffffff
		}
		c.tick >>= 1
	}
	return c.tick
}

// own privatizes the tag array before a write. While the array is shared
// it copies it into a buffer of its own and drops its share of the old
// one; once this Cache is the sole owner it is a two-instruction no-op on
// the hot path. Two sharers racing into own both copy — wasteful but
// correct, since the shared array itself is never written.
func (c *Cache) own() {
	if c.buf.ref.Load() == 1 {
		return
	}
	old := c.buf
	c.buf = newTagBuf(c.pool, len(c.ent))
	copy(c.buf.ent, c.ent)
	c.ent = c.buf.ent
	// If every other sharer released while we copied, the old buffer is
	// now unreferenced and recycles.
	old.drop(c.pool)
}

// Probe looks up addr, updating LRU state and hit/miss counters. It
// returns true on hit. Probe does not allocate on miss; pair it with Fill.
func (c *Cache) Probe(addr uint64) bool {
	tick := c.bump()
	tag := c.tagOf(addr)
	base := c.setOf(addr) * c.ways
	// One bounded subslice lets the compiler drop per-way bounds checks;
	// the write goes through c.ent because own may swap the array.
	set := c.ent[base : base+c.ways]
	for w := range set {
		if set[w]&0xffffffff == tag {
			c.own()
			c.ent[base+uint32(w)] = tick<<32 | tag
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Contains reports whether addr is resident without touching LRU state or
// counters (used by tests and invariant checks).
func (c *Cache) Contains(addr uint64) bool {
	tag := c.tagOf(addr)
	base := c.setOf(addr) * c.ways
	for w := uint32(0); w < c.ways; w++ {
		if c.ent[base+w]&0xffffffff == tag {
			return true
		}
	}
	return false
}

// Fill installs addr's line, evicting the LRU way of its set if needed.
// It returns the evicted line address and whether an eviction happened.
// Filling an already-resident line refreshes its LRU stamp.
func (c *Cache) Fill(addr uint64) (evicted uint64, wasEvicted bool) {
	c.own()
	tick := c.bump()
	tag := c.tagOf(addr)
	base := c.setOf(addr) * c.ways
	if c.ways < 256 {
		// Branchless victim selection: each way folds to stamp<<8|way
		// (invalid ways fold to 0<<8|way, undercutting every valid
		// stamp — bump starts stamps at 1), and the running minimum is
		// a single conditional move instead of data-dependent branches
		// the stamp distribution makes unpredictable. Ties and the
		// invalid-way preference resolve to the lowest way index,
		// exactly as the sequential scan did.
		set := c.ent[base : base+c.ways] // own already ran; stable array
		// Two running minima over alternating ways break the serial
		// compare chain in half; they merge after the loop. Ties and the
		// invalid-way preference still resolve to the lowest way index,
		// because the way number is packed into the low bits of the key.
		best0, best1 := ^uint64(0), ^uint64(0)
		w := 0
		for ; w+1 < len(set); w += 2 {
			e0, e1 := set[w], set[w+1]
			if e0&0xffffffff == tag {
				set[w] = tick<<32 | tag
				return 0, false
			}
			if e1&0xffffffff == tag {
				set[w+1] = tick<<32 | tag
				return 0, false
			}
			nz0 := (e0&0xffffffff + 0xffffffff) >> 32 // 1 if valid, else 0
			nz1 := (e1&0xffffffff + 0xffffffff) >> 32
			if pk := (e0>>32)*nz0<<8 | uint64(w); pk < best0 {
				best0 = pk
			}
			if pk := (e1>>32)*nz1<<8 | uint64(w+1); pk < best1 {
				best1 = pk
			}
		}
		if w < len(set) { // odd way count
			e := set[w]
			if e&0xffffffff == tag {
				set[w] = tick<<32 | tag
				return 0, false
			}
			nz := (e&0xffffffff + 0xffffffff) >> 32
			if pk := (e>>32)*nz<<8 | uint64(w); pk < best0 {
				best0 = pk
			}
		}
		if best1 < best0 {
			best0 = best1
		}
		victim := best0 & 0xff
		if old := set[victim] & 0xffffffff; old != 0 {
			evicted = (old - 1) << c.lineShift
			wasEvicted = true
		}
		set[victim] = tick<<32 | tag
		return evicted, wasEvicted
	}
	victim := base
	oldest := ^uint64(0)
	for w := uint32(0); w < c.ways; w++ {
		i := base + w
		e := c.ent[i]
		if e&0xffffffff == tag {
			c.ent[i] = tick<<32 | tag
			return 0, false
		}
		if e&0xffffffff == 0 {
			// Prefer an invalid way; stamp 0 guarantees selection
			// over any valid entry.
			if oldest != 0 {
				victim, oldest = i, 0
			}
			continue
		}
		if e>>32 < oldest {
			victim, oldest = i, e>>32
		}
	}
	if old := c.ent[victim] & 0xffffffff; old != 0 {
		evicted = (old - 1) << c.lineShift
		wasEvicted = true
	}
	c.ent[victim] = tick<<32 | tag
	return evicted, wasEvicted
}

// Flush invalidates every line and resets counters.
func (c *Cache) Flush() {
	if c.buf.ref.Load() > 1 {
		// The shared array must not be zeroed in place; detach instead.
		old := c.buf
		c.buf = newTagBuf(c.pool, len(c.ent))
		c.ent = c.buf.ent
		old.drop(c.pool)
	}
	clear(c.ent)
	c.tick = 0
	c.hits = 0
	c.misses = 0
}

// Clone returns a logically independent copy. Tag state is shared
// copy-on-write: the array is not copied until one side mutates, so
// cloning is O(1) regardless of capacity. The clone and the parent may
// subsequently run on different goroutines.
func (c *Cache) Clone() Cache {
	c.buf.ref.Add(1)
	return *c
}

// Release drops this Cache's share of the tag array. Calling it when
// discarding a clone lets the surviving sharer mutate in place again
// instead of paying a copy-on-first-write; forgetting it is safe, merely
// slower. The Cache must not be used after Release.
func (c *Cache) Release() {
	if c.buf != nil {
		c.buf.drop(c.pool)
		c.buf = nil
		c.ent = nil
	}
}

// Shared reports whether the tag array is currently shared with another
// Cache (used by tests).
func (c *Cache) Shared() bool { return c.buf.ref.Load() > 1 }
