// Package cache implements the depot-resident content-addressed chunk
// cache (DESIGN.md §15): byte ranges of previously forwarded objects,
// keyed by their end-to-end content digest, so a repeat transfer can be
// served from the nearest depot holding the bytes instead of from the
// origin.
//
// Entries are immutable by construction — the key commits to both the
// object's size and its SHA-256, so a digest can only ever name one
// byte string and there is no invalidation protocol. Ranges accrete
// monotonically as sessions are forwarded; once an entry reaches full
// coverage the cache re-hashes it end to end and drops it on mismatch,
// after which the entry is advertised in the depot's digest inventory.
//
// Each span — one contiguous range of one object — is one CRC-framed
// blob in an internal/blobstore store keyed by {digest, offset,
// length}. The store owns the memory and disk tiers, their one recency
// order, spilling and the restart re-index; every read streams back
// through the verifying frame reader, so a flipped bit in cached state
// surfaces as wire.ErrChecksum at serve time, the span is dropped, and
// the transfer falls back to the origin.
package cache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"github.com/netlogistics/lsl/internal/blobstore"
	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// ErrMiss reports that the cache does not (fully) hold the requested
// range. Serve paths treat it as "go to the origin".
var ErrMiss = errors.New("cache: range not held")

// Metric names registered by the cache. They carry the depot_ prefix
// because the cache is depot-resident state: one cache per depot, and
// operators alert on them next to the other depot_ series.
const (
	// MetricHits counts serve attempts satisfied from cached state.
	MetricHits = "depot_cache_hits_total"
	// MetricMisses counts serve attempts the cache could not satisfy:
	// range not held, or held bytes that failed their integrity check.
	MetricMisses = "depot_cache_misses_total"
	// MetricEvictions counts spans evicted to stay inside the budgets
	// (integrity drops included).
	MetricEvictions = "depot_cache_evictions_total"
	// MetricBytes counts payload bytes served out of the cache.
	MetricBytes = "depot_cache_bytes_total"
	// MetricOccupancy gauges the payload bytes currently held across
	// both tiers, the unit the budgets are expressed in.
	MetricOccupancy = "depot_cache_occupancy_bytes"
)

// Config parameterizes a cache.
type Config struct {
	// MemoryBytes is the memory-tier budget in payload bytes. Required.
	MemoryBytes int64
	// Dir, when set, enables the disk tier, four times MemoryBytes:
	// spans displaced from memory spill to CRC-framed files here and
	// are re-indexed on restart.
	Dir string
	// Metrics receives the depot_cache_* series. Optional.
	Metrics *obs.Registry
}

// Stats is a point-in-time snapshot of cache state and traffic.
type Stats struct {
	Objects     int   // distinct digests with at least one span
	Complete    int   // digests held in full (inventory size)
	MemBytes    int64 // payload bytes resident in memory
	DiskBytes   int64 // payload bytes resident on disk
	Hits        int64
	Misses      int64
	Evictions   int64
	BytesServed int64
	Recovered   int // spans re-indexed from disk at startup
	Dropped     int // damaged files dropped during re-index
}

// spanExt suffixes spilled span files:
// <spanKey>-<payload length hex>.cb. It differs from the depot spool's,
// so both may share one directory.
const spanExt = ".cb"

// spanKey names one span's blob.
type spanKey struct {
	digest   wire.ContentDigest
	off, len int64
}

func (k spanKey) end() int64 { return k.off + k.len }

// String is the span's file-name stem: <sha256>-<object size>-<span
// offset>-<span length>, hex.
func (k spanKey) String() string {
	return fmt.Sprintf("%064x-%016x-%016x-%016x", k.digest.Sum, uint64(k.digest.Size), uint64(k.off), uint64(k.len))
}

// parseSpanKey inverts spanKey.String.
func parseSpanKey(name string) (k spanKey, ok bool) {
	var sum []byte
	_, err := fmt.Sscanf(name, "%x-%x-%x-%x", &sum, &k.digest.Size, &k.off, &k.len)
	copy(k.digest.Sum[:], sum)
	return k, err == nil && k.String() == name && k.len > 0 && k.end() <= k.digest.Size
}

// entry is every span held for one digest, sorted by offset and
// non-overlapping.
type entry struct {
	spans    []spanKey
	complete bool // full coverage, whole-object hash verified
}

// Cache is a content-addressed range cache. All methods are safe for
// concurrent use.
type Cache struct {
	hits, misses, evictions, bytesServed *obs.Counter
	occupancy                            *obs.Gauge

	mu      sync.Mutex
	store   *blobstore.Store[spanKey]
	entries map[wire.ContentDigest]*entry
	stats   Stats
}

// New builds a cache and, when a directory is configured, re-indexes
// whatever spilled spans a previous process left there, dropping
// damaged files. The returned cache is immediately usable.
func New(cfg Config) (*Cache, error) {
	if cfg.MemoryBytes <= 0 {
		return nil, errors.New("cache: MemoryBytes must be positive")
	}
	store, rec, err := blobstore.New(cfg.Dir, spanExt, cfg.MemoryBytes, 4*cfg.MemoryBytes, parseSpanKey)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	m := cfg.Metrics // a nil registry hands out no-op series
	c := &Cache{
		hits:        m.Counter(MetricHits),
		misses:      m.Counter(MetricMisses),
		evictions:   m.Counter(MetricEvictions),
		bytesServed: m.Counter(MetricBytes),
		occupancy:   m.Gauge(MetricOccupancy),
		store:       store,
		entries:     make(map[wire.ContentDigest]*entry),
	}
	c.stats.Recovered, c.stats.Dropped = rec.Evicted, rec.Dropped
	c.stats.Evictions = int64(rec.Evicted)
	c.evictions.Add(c.stats.Evictions)
	for _, k := range rec.Keys {
		e := c.entry(k.digest)
		if gaps := uncovered(e.spans, k.off, k.end()); len(gaps) != 1 || gaps[0] != (wire.ByteRange{Off: k.off, Len: k.len}) {
			// Overlaps a span already indexed: drop the duplicate.
			c.store.Remove(k)
			c.stats.Dropped++
			continue
		}
		e.spans = insertSpan(e.spans, k)
		c.stats.Recovered++
	}
	// Re-verify full objects end to end so the inventory only ever
	// advertises digests this process has proven.
	for key, e := range c.entries {
		if len(e.spans) == 0 {
			delete(c.entries, key)
		} else if coverFrom(e.spans, 0) >= key.Size {
			c.verifyComplete(key, e)
		}
	}
	c.setOccupancy()
	return c, nil
}

// setOccupancy must be called with mu held after any size change.
func (c *Cache) setOccupancy() {
	st := c.store.Stats()
	c.occupancy.Set(st.MemBytes + st.DiskBytes)
}

// entry returns the digest's entry, creating it. Called with mu held.
func (c *Cache) entry(key wire.ContentDigest) *entry {
	e := c.entries[key]
	if e == nil {
		e = &entry{}
		c.entries[key] = e
	}
	return e
}

// Put stores data as the object's bytes at [off, off+len(data)).
// Already-held portions are skipped: entries are immutable, and full
// coverage re-verifies the whole object against the digest. Each new
// span becomes the most recently used blob. A span too large for every
// configured tier is rejected.
func (c *Cache) Put(key wire.ContentDigest, off int64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if off < 0 || off+int64(len(data)) > key.Size {
		return fmt.Errorf("cache: put [%d,%d) outside object of %d bytes", off, off+int64(len(data)), key.Size)
	}
	if !c.Fits(int64(len(data))) {
		return fmt.Errorf("cache: %w", blobstore.ErrTooLarge)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.setOccupancy()
	for _, gap := range uncovered(c.entry(key).spans, off, off+int64(len(data))) {
		k := spanKey{key, gap.Off, gap.Len}
		// Cannot fail: the frames are well formed and the span fits.
		evicted, _ := c.store.Put(k, wire.AppendFrames(nil, data[gap.Off-off:gap.End()-off]))
		e := c.entry(key)
		e.spans = insertSpan(e.spans, k)
		c.forget(evicted)
	}
	if e := c.entries[key]; e != nil && !e.complete && coverFrom(e.spans, 0) >= key.Size {
		c.verifyComplete(key, e)
	}
	return nil
}

// uncovered returns the sub-ranges of [lo, hi) not covered by spans.
func uncovered(spans []spanKey, lo, hi int64) []wire.ByteRange {
	var out []wire.ByteRange
	for _, sp := range spans {
		if sp.off >= hi {
			break
		}
		if sp.off > lo {
			out = append(out, wire.ByteRange{Off: lo, Len: sp.off - lo})
		}
		lo = max(lo, sp.end())
	}
	if lo < hi {
		out = append(out, wire.ByteRange{Off: lo, Len: hi - lo})
	}
	return out
}

// insertSpan inserts sp keeping the slice sorted by offset.
func insertSpan(spans []spanKey, sp spanKey) []spanKey {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].off > sp.off })
	return slices.Insert(spans, i, sp)
}

// coverFrom returns the furthest offset reachable contiguously from
// `from` through the sorted spans (at least `from` itself).
func coverFrom(spans []spanKey, from int64) int64 {
	at := from
	for _, sp := range spans {
		if sp.off > at {
			break
		}
		at = max(at, sp.end())
	}
	return at
}

// verifyComplete re-hashes a fully covered entry against its digest,
// marking it advertisable on success and dropping it wholesale on a
// mismatch or a span that fails its CRC. Called with mu held.
func (c *Cache) verifyComplete(key wire.ContentDigest, e *entry) {
	h := sha256.New()
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	for _, k := range e.spans {
		r, err := c.store.Open(k)
		if err == nil {
			_, err = io.CopyBuffer(h, r, *bp)
			r.Close()
		}
		if err != nil {
			c.drop(slices.Clone(e.spans)...)
			return
		}
	}
	var sum [wire.DigestLen]byte
	if h.Sum(sum[:0]); sum != key.Sum {
		c.drop(slices.Clone(e.spans)...)
		return
	}
	e.complete = true
}

// forget prunes spans the store evicted, counting each. mu is held.
func (c *Cache) forget(keys []spanKey) {
	for _, k := range keys {
		e := c.entries[k.digest]
		if e == nil {
			continue
		}
		if i := slices.Index(e.spans, k); i >= 0 {
			e.spans = slices.Delete(e.spans, i, i+1)
			e.complete = false
		}
		if len(e.spans) == 0 {
			delete(c.entries, k.digest)
		}
	}
	c.stats.Evictions += int64(len(keys))
	c.evictions.Add(int64(len(keys)))
}

// drop removes spans from the store and the index, counted as
// evictions. Called with mu held.
func (c *Cache) drop(keys ...spanKey) {
	c.forget(slices.DeleteFunc(keys, func(k spanKey) bool { return !c.store.Remove(k) }))
	c.setOccupancy()
}

// Ranges returns the held byte ranges for a digest, coalesced and
// sorted — the body of a cache-hit advertisement. A nil return is a
// miss. Probing does not disturb recency and is not counted as a hit
// or miss; only serve attempts are.
func (c *Cache) Ranges(key wire.ContentDigest) []wire.ByteRange {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return nil
	}
	var out []wire.ByteRange
	for _, sp := range e.spans {
		if n := len(out); n > 0 && out[n-1].End() >= sp.off {
			out[n-1].Len = max(out[n-1].End(), sp.end()) - out[n-1].Off
			continue
		}
		out = append(out, wire.ByteRange{Off: sp.off, Len: sp.len})
	}
	return out
}

// Holds reports whether the cache contiguously holds r. A false return
// counts as a cache miss: callers ask on the serve path, deciding
// between local serve and origin forward.
func (c *Cache) Holds(key wire.ContentDigest, r wire.ByteRange) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e != nil && r.Len > 0 && coverFrom(e.spans, r.Off) >= r.End() {
		return true
	}
	c.miss()
	return false
}

// miss counts one failed serve attempt. Called with mu held.
func (c *Cache) miss() {
	c.stats.Misses++
	c.misses.Inc()
}

// Fits reports whether a range of n payload bytes could ever reside in
// this cache. Population paths ask before buffering a session's
// payload, so a cache too small for the object costs nothing.
func (c *Cache) Fits(n int64) bool {
	return n > 0 && n <= c.store.MaxPayload()
}

// Keys returns the digests held in full — the depot's advertisable
// inventory — in deterministic (sum) order.
func (c *Cache) Keys() []wire.ContentDigest {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []wire.ContentDigest
	for key, e := range c.entries {
		if e.complete {
			out = append(out, key)
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Sum[:], out[j].Sum[:]) < 0 })
	return out
}

// Stats returns a snapshot of cache state and lifetime traffic.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Objects = len(c.entries)
	for _, e := range c.entries {
		if e.complete {
			s.Complete++
		}
	}
	st := c.store.Stats()
	s.MemBytes, s.DiskBytes = st.MemBytes, st.DiskBytes
	return s
}
