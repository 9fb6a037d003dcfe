package cache

import (
	"fmt"
	"io"

	"github.com/netlogistics/lsl/internal/blobstore"
	"github.com/netlogistics/lsl/internal/wire"
)

// Open returns a reader over the payload bytes of r, counted as one
// serve attempt: a hit if the range is contiguously held, otherwise
// ErrMiss. The read is lazy and every byte streams back through the
// CRC frame verifier, so corruption of cached state surfaces as
// wire.ErrChecksum partway through the read; the damaged span is
// dropped so subsequent probes see the truth, and the caller falls
// back to the origin for the remainder.
func (c *Cache) Open(key wire.ContentDigest, r wire.ByteRange) (io.ReadCloser, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || r.Len <= 0 || coverFrom(e.spans, r.Off) < r.End() {
		c.miss()
		return nil, ErrMiss
	}
	rr := &rangeReader{c: c}
	for _, k := range e.spans {
		if k.end() <= r.Off || k.off >= r.End() {
			continue
		}
		br, err := c.store.Open(k)
		if err != nil {
			// A spilled file gone from under the index.
			rr.Close()
			c.drop(k)
			c.miss()
			return nil, fmt.Errorf("%w: %v", ErrMiss, err)
		}
		c.store.Touch(k)
		skip := max(r.Off-k.off, 0)
		rr.parts = append(rr.parts, spanPart{key: k, r: br, skip: skip, take: min(k.end(), r.End()) - k.off - skip})
	}
	c.stats.Hits++
	c.hits.Inc()
	return rr, nil
}

// spanPart is one span's contribution to an open range read, with the
// blob's bytes captured at Open time, so the read survives the span
// being spilled or evicted meanwhile.
type spanPart struct {
	key  spanKey
	r    *blobstore.Reader
	skip int64 // payload bytes to discard at the front
	take int64 // payload bytes to yield
}

// rangeReader streams a cached range span by span.
type rangeReader struct {
	c     *Cache
	parts []spanPart // parts[0] is being read once started
	rem   int64      // bytes left in parts[0]; 0 before it starts
}

// Read implements io.Reader.
func (rr *rangeReader) Read(p []byte) (int, error) {
	for rr.rem == 0 {
		if len(rr.parts) == 0 {
			return 0, io.EOF
		}
		part := rr.parts[0]
		if part.skip > 0 {
			if _, err := io.CopyN(io.Discard, part.r, part.skip); err != nil {
				return 0, rr.fail(err)
			}
		}
		rr.rem = part.take
	}
	n, err := rr.parts[0].r.Read(p[:min(int64(len(p)), rr.rem)])
	rr.rem -= int64(n)
	if n > 0 {
		rr.c.mu.Lock()
		rr.c.stats.BytesServed += int64(n)
		rr.c.mu.Unlock()
		rr.c.bytesServed.Add(int64(n))
	}
	if err != nil {
		return n, rr.fail(err)
	}
	if rr.rem == 0 {
		// Clean span boundary; the next Read starts the next part.
		rr.parts[0].r.Close()
		rr.parts = rr.parts[1:]
	}
	return n, nil
}

// fail records a failed serve: the span being read is dropped so the
// cache stops advertising bytes it cannot prove, and the attempt is
// re-counted as a miss, so hit/miss totals reflect what was served.
func (rr *rangeReader) fail(err error) error {
	rr.c.mu.Lock()
	rr.c.drop(rr.parts[0].key)
	rr.c.miss()
	rr.c.mu.Unlock()
	rr.Close()
	return err
}

// Close releases any disk handles still open.
func (rr *rangeReader) Close() error {
	for _, part := range rr.parts {
		part.r.Close()
	}
	rr.parts, rr.rem = nil, 0
	return nil
}

// Tamper flips the cached byte at off the way decaying storage would,
// so the next read of its span fails its CRC check. Returns false when
// no cached span covers off. Test and fault-injection hook.
func (c *Cache) Tamper(key wire.ContentDigest, off int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		for _, k := range e.spans {
			if off >= k.off && off < k.end() {
				return c.store.Tamper(k, off-k.off)
			}
		}
	}
	return false
}
