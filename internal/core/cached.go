package core

import (
	"fmt"
	"time"

	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// Cache-offload metric names reported into Config.Metrics by
// TransferCached.
const (
	// MetricCacheServedBytes counts payload bytes delivered out of depot
	// caches instead of re-sent by the origin.
	MetricCacheServedBytes = "core_cache_served_bytes_total"
	// MetricCacheFallbacks counts cached transfers that had to fall back
	// to an origin send after a serve directive failed partway.
	MetricCacheFallbacks = "core_cache_fallbacks_total"
)

// CachedResult extends TransferResult with the cache-offload split: how
// many payload bytes the origin actually sent versus how many a depot
// cache served, and which depot served them.
type CachedResult struct {
	TransferResult
	// OriginBytes is the payload the origin sent (cold prefix plus any
	// fallback re-sends). Zero on a full cache hit.
	OriginBytes int64
	// CachedBytes is the payload a depot cache served.
	CachedBytes int64
	// Holder names the serving depot's host; empty when the transfer ran
	// entirely from the origin.
	Holder string
}

// TransferCached moves one content-addressed object from srcHost to
// dstHost, serving as much of it as possible from depot caches along
// the planned path. The object is identified by id: its payload is the
// deterministic session pattern of id over size bytes, so its content
// digest — the cache key every depot tracks — is computable up front
// and stable across repeat transfers.
//
// The transfer runs in phases. The path's relay depots are probed for
// the digest; the holder covering the longest suffix of the object
// wins. Any cold prefix the cache cannot supply is sent by the origin
// first (the sink's end-to-end digest is order-sensitive), then the
// holder is directed to serve the remainder out of its cache. A serve
// that dies partway — a tampered cache span fails its CRC on read, for
// instance — falls back to an origin re-send resuming at the sink's
// acked offset, so cache corruption costs throughput, never
// correctness: the sink's whole-object digest check stands regardless
// of who supplied which range. Origin sends retry, resume and fail over
// under pol exactly as TransferReliable does.
//
// A transfer with no holder is an ordinary reliable send that, as a
// side effect, populates the caches of every depot it traverses —
// that is what makes the next TransferCached of the same object warm.
func (s *System) TransferCached(srcHost, dstHost string, id wire.SessionID, size int64, pol RecoveryPolicy) (CachedResult, error) {
	if size <= 0 {
		return CachedResult{}, fmt.Errorf("core: transfer size %d must be positive", size)
	}
	si, di, path, err := s.plan(srcHost, dstHost)
	if err != nil {
		return CachedResult{}, err
	}
	if path == nil {
		path = []int{si, di}
	}

	digest := depot.PatternDigest(id, size)
	// Cached transfers always travel with integrity stamps: the chunk
	// framing is what lets depots trust (and cache) forwarded bytes, and
	// the content digest is the cache key itself.
	tid := mintTrace()
	opts := append(traceOpt(tid), integrityOptions(id, size)...)
	s.digests.open(id)
	defer s.digests.drop(id)
	start := time.Now()

	holder, coldEnd := s.bestHolder(si, path, digest)
	out := CachedResult{}
	if holder > 0 {
		out.Holder = s.Topo.Hosts[path[holder]].Name
	}
	rt := &route{path: path}
	j := &send{
		src: si, dst: di, id: id, tid: tid,
		q:      newRangeQueue(nil),
		routes: []*route{rt}, workers: 1,
		pol: pol.withDefaults(), retries: MetricRetryAttempts,
		open: s.chainOpener(id, opts),
	}
	fail := func(err error) (CachedResult, error) {
		out.OriginBytes = j.q.ackedBytes() - out.CachedBytes
		err = fmt.Errorf("core: cached transfer delivered %d of %d bytes: %w", j.q.ackedBytes(), size, err)
		s.observeTransfer(TransferResult{}, err)
		return out, err
	}

	// Phase A: origin-send the cold prefix the cache cannot supply. The
	// sink digests bytes strictly in order, so the prefix must be acked
	// before any cache serve begins.
	if coldEnd > 0 {
		j.q.add(wire.ByteRange{Len: coldEnd}, true)
		if err := s.run(j); err != nil {
			return fail(err)
		}
	}

	// Phase B: direct the holder to serve the remainder from its cache.
	// The remainder joins the queue parked, so the sink's report of the
	// serve folds into it like any other delivery.
	if holder > 0 {
		r := j.q.add(wire.ByteRange{Off: coldEnd, Len: size - coldEnd}, false)
		s.serveFromCache(j, path, holder, digest, r, opts)
		acked, finished := j.q.state(r)
		out.CachedBytes = acked - coldEnd
		s.cfg.Metrics.Counter(MetricCacheServedBytes).Add(out.CachedBytes)
		if !finished {
			// The serve came up short (refused, or a cached span failed
			// its CRC mid-read). Phase C re-sends the rest from the
			// origin.
			s.cfg.Metrics.Counter(MetricCacheFallbacks).Inc()
			j.q.release(r, nil)
		}
	}

	// Phase C: whatever is still unacked comes from the origin under the
	// normal retry schedule. A depot that still holds a good copy may
	// short-circuit this send from its own cache — that is offload too,
	// but it is counted as origin traffic here because the origin paid
	// to stream the bytes into the network again.
	if err := s.run(j); err != nil {
		return fail(err)
	}
	out.OriginBytes = size - out.CachedBytes
	out.TransferResult, err = s.finish(size, start, rt.current(), nil)
	return out, err
}

// bestHolder probes the path's relay depots for the digest and returns
// the path index of the depot whose cache covers the longest suffix of
// the object, plus the first byte that suffix starts at (the cold
// prefix boundary). A zero holder index means no usable holder; a
// coldEnd of 0 means a full-object hit.
func (s *System) bestHolder(si int, path []int, digest wire.ContentDigest) (holder int, coldEnd int64) {
	coldEnd = digest.Size
	dial := s.dialerFor(si)
	for i := 1; i < len(path)-1; i++ {
		ranges, err := lsl.CacheProbe(dial, s.endpoints[si], s.endpoints[path[i]], digest)
		if err != nil {
			continue // no cache there, or unreachable: not a holder
		}
		c := wire.SuffixStart(ranges, digest.Size)
		// Prefer the longest suffix; on ties the later depot wins — it
		// is nearer the destination, so more hops are offloaded.
		if c < digest.Size && c <= coldEnd {
			holder, coldEnd = i, c
		}
	}
	if holder == 0 {
		coldEnd = digest.Size
	}
	return holder, coldEnd
}

// serveFromCache sends the serve directive for range r to the holding
// depot and waits until r is finished, the sink reports the serve, the
// holder refuses, or the attempt timeout passes. Failures are soft: a
// refusal, a partial serve, or silence all just leave bytes for the
// origin fallback to send. The queue watches the session id before the
// directive goes out, so no report of the serve can slip past it.
func (s *System) serveFromCache(j *send, path []int, holder int, digest wire.ContentDigest, r *xferRange, opts []wire.Option) {
	// The directive's route runs from the holder along the rest of the
	// planned path; the holder pushes cached bytes down exactly the hops
	// the origin stream would have taken from there: path[holder:] up to
	// the destination.
	route := s.relays(path[holder-1:])
	timeout := j.pol.AttemptTimeout
	s.watch(j.id, j.q)
	defer s.unwatch(j.q)
	own := j.q.expect(r.rng.Off)
	defer j.q.forget(own)
	_, done := j.q.frontier(r)
	dial := lsl.TimeoutDialer(s.dialerFor(j.src), timeout)
	sess, err := lsl.OpenCacheServe(dial, j.id, s.endpoints[j.src], s.endpoints[j.dst], route, digest, r.rng, opts...)
	if err != nil {
		return
	}
	defer sess.Close()
	s.emitHop0(j.id, j.tid, j.src, obs.KindConnect, obs.Event{
		Peer:   s.endpoints[path[holder]].String(),
		Detail: fmt.Sprintf("cache serve [%d,%d)", r.rng.Off, r.rng.End()),
	})

	// A holder that cannot satisfy the directive answers with a refusal
	// on this connection; a successful serve sends nothing back.
	refused := make(chan struct{}, 1)
	go func() {
		if h, rerr := wire.ReadHeader(sess); rerr == nil && h.Type == wire.TypeRefuse {
			refused <- struct{}{}
		}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-own.ch:
	case <-refused:
	case <-timer.C:
	}
}

// DepotCache returns the named host's depot cache, or nil when the
// system runs without caches. Experiments use it to inspect — and
// tamper with — cached state deterministically.
func (s *System) DepotCache(host string) *cache.Cache {
	i, err := s.resolve(host)
	if err != nil || i >= len(s.caches) {
		return nil
	}
	return s.caches[i]
}
