// Content-addressed probe cache: the memo the parallel probe engine and
// repeat discoveries hit instead of the toolchain. The unit of caching is
// the logical probe — one fully resolved retry+quorum interaction — keyed
// by the operation and the content flowing into it: C source for
// compiles, assembly text for assembles, the ordered assembly texts of the
// units for links, and the link key for executes (sample text → assembly →
// quorum-accepted run output), plus the expected output for
// expect-executes. A hit returns the recorded value, error, and telemetry
// bundle; replaying the bundle keeps a warm run's trace byte-identical to
// the cold run that filled it.
//
// Keys are the content itself, not a digest of it: a struct-keyed Go map
// hashes the strings in place, so a lookup costs no allocation and no
// cryptographic work — this sits on the per-mutation hot path. The
// operation is a key field of its own, so no separator scheme is needed
// and no payload can collide across operations.
package probe

import (
	"strconv"
	"strings"
	"sync"

	"srcg/internal/asm"
	"srcg/internal/obs"
)

// Counter names for the cache's hit/miss split. They are unsealed
// (obs.Unsealed): visible in Counters() and reports, excluded from the
// Flush tail, because a warm and a cold run must trace identically.
const (
	CtrCacheHits   = "probe.cache_hits"
	CtrCacheMisses = "probe.cache_misses"
)

// Occupancy gauges (also unsealed): how full the cache is at the end of
// a run — the numbers an LRU bound will be set against.
const (
	CtrCacheEntries = "probe.cache_entries"
	CtrCacheBytes   = "probe.cache_bytes"
)

// entryKey addresses one memoized logical probe by operation and the full
// content flowing into the probe. want is the
// expected output of an execute-expect probe (empty for every other op):
// a field of its own rather than part of the payload, so the key shares
// the link key's string instead of copying it.
type entryKey struct {
	op      string
	payload string
	want    string
}

// cacheEntry is one memoized logical probe: its outcome and the drained
// telemetry bundle to replay on a hit. Immutable once stored.
type cacheEntry struct {
	val    any
	err    error
	replay *obs.Replay
}

// Cache memoizes logical probe outcomes content-addressed, across probers
// and across runs in one process. It also tracks content identity for the
// opaque handles the toolchain returns (units, images), so a link or
// execute probe can be keyed by what went into it without ever inspecting
// the handle — the black-box discipline holds. Safe for concurrent use.
//
// Only quiet, settled outcomes are stored: no retries consumed, no noisy
// latch, and any error permanent (assembler rejects are cached signal;
// transient faults and exhaustion are not).
type Cache struct {
	mu      sync.Mutex
	entries map[entryKey]*cacheEntry
	units   map[*asm.Unit]string
	images  map[*asm.Image]string
	// bytes approximates the resident size of the memo: key strings plus
	// memoized string values, maintained on first-write in store.
	bytes int64
}

// NewCache returns an empty probe cache.
func NewCache() *Cache {
	return &Cache{
		entries: map[entryKey]*cacheEntry{},
		units:   map[*asm.Unit]string{},
		images:  map[*asm.Image]string{},
	}
}

// Len reports how many logical probes are memoized.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes reports the approximate resident size of the memo in bytes: the
// content-address keys plus memoized string outputs. Handles and replay
// bundles are not sized — the keys carry the whole sample and assembly
// texts and dominate; the number is a capacity-planning gauge, not an
// accounting of the allocator.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

func (c *Cache) lookup(k entryKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	return e, ok
}

// store memoizes an entry, first write wins: two workers resolving the
// same probe concurrently computed the same pure function, so either
// bundle is the canonical one — keeping the first makes the choice
// deterministic for every later reader.
func (c *Cache) store(k entryKey, e *cacheEntry) {
	c.mu.Lock()
	if _, ok := c.entries[k]; !ok {
		c.entries[k] = e
		c.bytes += int64(len(k.op) + len(k.payload) + len(k.want))
		if s, ok := e.val.(string); ok {
			c.bytes += int64(len(s))
		}
	}
	c.mu.Unlock()
}

// bindUnit records a unit handle's content identity: the assembly text it
// came from. The string header is shared with the probe payload, so the
// binding costs no copy.
func (c *Cache) bindUnit(u *asm.Unit, text string) {
	c.mu.Lock()
	c.units[u] = text
	c.mu.Unlock()
}

// bindImage records an image handle's content identity (its link key).
func (c *Cache) bindImage(img *asm.Image, id string) {
	c.mu.Lock()
	c.images[img] = id
	c.mu.Unlock()
}

// unitsKey builds the link-probe payload: the ordered content identities
// of the units, each prefixed by its length so unit boundaries cannot
// alias. ok is false (uncacheable) if any unit's origin is unknown.
func (c *Cache) unitsKey(units []*asm.Unit) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	ids := make([]string, len(units))
	for i, u := range units {
		id, ok := c.units[u]
		if !ok {
			return "", false
		}
		ids[i] = id
		n += len(id) + 12
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, id := range ids {
		sb.WriteString(strconv.Itoa(len(id)))
		sb.WriteByte(':')
		sb.WriteString(id)
	}
	return sb.String(), true
}

// imageKey builds the execute-probe payload from the image's content
// identity; ok is false (uncacheable) if the image's origin is unknown.
func (c *Cache) imageKey(img *asm.Image) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.images[img]
	return id, ok
}
