package depot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// maxInventoryDigests caps a cache-probe inventory response so it
// always fits a single header (64 KiB / 44 bytes per lookup option
// leaves ample headroom).
const maxInventoryDigests = 1024

// handleCacheProbe answers a TypeCacheProbe exchange on its own
// connection, like a fetch: with a lookup option the response carries
// the cached byte ranges for that digest; without one it carries the
// depot's digest inventory (fully held objects only). Probes bypass
// the admission gate for the same reason control pushes do — a depot
// shedding load still wants its cache found, because every hit it
// advertises is load somebody else does not send.
func (s *Server) handleCacheProbe(sess *lsl.Session, f *flow) error {
	defer sess.Close()
	h := sess.Header
	if s.cfg.Cache == nil {
		s.refuse(sess, f, errors.New("no cache configured"), &s.met.refused)
		return nil
	}
	resp := &wire.Header{
		Version: wire.Version1,
		Type:    wire.TypeCacheProbe,
		Session: h.Session,
		Src:     s.cfg.Self,
		Dst:     h.Src,
	}
	if d, ok := h.CacheLookup(); ok {
		resp.AddOption(wire.CacheAdvertOption(s.cfg.Cache.Ranges(d)))
	} else {
		keys := s.cfg.Cache.Keys()
		if len(keys) > maxInventoryDigests {
			keys = keys[:maxInventoryDigests]
		}
		for _, k := range keys {
			resp.AddOption(wire.CacheLookupOption(k))
		}
	}
	return wire.WriteHeader(sess, resp)
}

// handleCacheServe executes a serve-from-cache directive: the depot
// opens the named range in its cache and pushes it toward the session
// destination as an ordinary TypeData stream resuming at the range
// offset. A directive it cannot satisfy — no cache, malformed option,
// range not held — is refused, so the initiator's recovery machinery
// falls back to an origin send. A cached span that fails its CRC check
// mid-read ends the session partway; the sink's acked offset tells the
// initiator where the origin re-send must resume.
func (s *Server) handleCacheServe(sess *lsl.Session, f *flow) error {
	defer sess.Close()
	h := sess.Header
	d, r, ok := h.CacheServe()
	if !ok || s.cfg.Cache == nil {
		s.refuse(sess, f, errors.New("cache serve unavailable"), &s.met.refused)
		return nil
	}
	rc, err := s.cfg.Cache.Open(d, r)
	if err != nil {
		s.refuse(sess, f, errors.New("cache miss: "+err.Error()), &s.met.refused)
		return nil
	}
	defer rc.Close()
	l, err := s.onward(sess, f, legSpec{kind: "cache-serve", typ: wire.TypeData,
		set: []wire.Option{wire.ResumeOffsetOption(uint64(r.Off))}})
	if l == nil {
		return err
	}
	f.emit(obs.KindCacheHit, obs.Event{Peer: h.Dst.String(), Bytes: r.Len,
		Detail: fmt.Sprintf("serving [%d,%d) from cache", r.Off, r.End())})
	return s.relay(sess, f, l, framedWriter(l, h), rc, nil)
}

// cacheable extracts the cache key for a session's payload: a plain
// (unstriped) data session carrying a well-formed content digest. The
// remaining byte range follows from the resume offset.
func cacheable(h *wire.Header) (wire.ContentDigest, wire.ByteRange, bool) {
	if h.Type != wire.TypeData || h.StripeCount() > 1 {
		return wire.ContentDigest{}, wire.ByteRange{}, false
	}
	d, ok := h.ContentDigest()
	if !ok || d.Size <= 0 {
		return wire.ContentDigest{}, wire.ByteRange{}, false
	}
	off := h.ResumeOffset()
	if off < 0 || off >= d.Size {
		return wire.ContentDigest{}, wire.ByteRange{}, false
	}
	return d, wire.ByteRange{Off: off, Len: d.Size - off}, true
}

// cachedRemainder opens the session's remaining range in the local
// cache when it is held in full, and terminates the upstream sublink:
// everything the origin would still send is already here. The sender
// sees its writes fail, exactly as if the path had collapsed behind the
// bytes already being delivered. A partial or failed cache read ends
// the session early and the initiator resumes from the sink's acked
// offset via the origin. It returns nil when the cache cannot serve.
func (s *Server) cachedRemainder(sess *lsl.Session, f *flow) io.ReadCloser {
	if s.cfg.Cache == nil {
		return nil
	}
	h := sess.Header
	d, r, ok := cacheable(h)
	if !ok || !s.cfg.Cache.Holds(d, r) {
		// Counted as a cache miss: this depot lets the session go on
		// from the origin.
		return nil
	}
	rc, err := s.cfg.Cache.Open(d, r)
	if err != nil {
		return nil
	}
	f.emit(obs.KindCacheHit, obs.Event{Peer: h.Dst.String(), Bytes: r.Len,
		Detail: fmt.Sprintf("short-circuit: serving [%d,%d) from cache, upstream terminated", r.Off, r.End())})
	sess.Conn.Close()
	return rc
}

// cacheTap accumulates the payload a forwarding pump moves and commits
// it to the cache when the session ends — on-forward population. For a
// checksummed session the tap rides after the verifying reader, so it
// sees CRC-proven frames and unframes them incrementally; whatever
// complete frames arrived before a failure are still good bytes and
// are committed. An unchecked stream carries no per-chunk proof, so it
// is committed only when the session completes cleanly.
//
// The tap is locked because a pump that fails on its write side
// returns while its reader goroutine may still be teeing into the tap
// the handler is committing.
type cacheTap struct {
	mu      sync.Mutex
	c       *cache.Cache
	key     wire.ContentDigest
	base    int64
	framed  bool
	raw     bytes.Buffer
	pending []byte
	broken  bool
}

// cacheTap returns a population tap for the session, or nil when the
// session is not cacheable or would not fit the cache.
func (s *Server) cacheTap(h *wire.Header) *cacheTap {
	if s.cfg.Cache == nil {
		return nil
	}
	d, r, ok := cacheable(h)
	if !ok || !s.cfg.Cache.Fits(r.Len) {
		return nil
	}
	return &cacheTap{c: s.cfg.Cache, key: d, base: r.Off, framed: h.Checksummed()}
}

// Write implements io.Writer for the tee off the pump source. It never
// fails: population is best-effort and must not disturb forwarding.
func (t *cacheTap) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.broken {
		return len(p), nil
	}
	if !t.framed {
		t.raw.Write(p)
		if int64(t.raw.Len()) > t.key.Size-t.base {
			// More payload than the digest promised: not trustworthy.
			t.broken = true
		}
		return len(p), nil
	}
	t.pending = append(t.pending, p...)
	for len(t.pending) >= wire.FrameHeaderLen {
		length := int(binary.BigEndian.Uint32(t.pending[0:4]))
		if length == 0 || length > wire.MaxFramePayload {
			t.broken = true
			return len(p), nil
		}
		if len(t.pending) < wire.FrameHeaderLen+length {
			break
		}
		t.raw.Write(t.pending[wire.FrameHeaderLen : wire.FrameHeaderLen+length])
		t.pending = t.pending[wire.FrameHeaderLen+length:]
		if int64(t.raw.Len()) > t.key.Size-t.base {
			t.broken = true
			return len(p), nil
		}
	}
	return len(p), nil
}

// commit stores the accumulated payload. Verified (framed) bytes are
// committed even after a mid-session failure — a partial range is
// still a true range; unverified bytes only on a clean end.
func (t *cacheTap) commit(clean bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.broken || t.raw.Len() == 0 {
		return
	}
	if !t.framed && !clean {
		return
	}
	_ = t.c.Put(t.key, t.base, t.raw.Bytes())
}

// CacheStats exposes the configured cache's statistics (zero Stats
// without a cache).
func (s *Server) CacheStats() cache.Stats {
	if s.cfg.Cache == nil {
		return cache.Stats{}
	}
	return s.cfg.Cache.Stats()
}
