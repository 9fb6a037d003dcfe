package core

import (
	"fmt"
	"time"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// Striping metric names reported into Config.Metrics.
const (
	// MetricStripedTransfers counts completed striped transfers.
	MetricStripedTransfers = "core_striped_transfers_total"
	// MetricStripeRetries counts per-stripe retry attempts beyond the
	// first, across all striped transfers.
	MetricStripeRetries = "core_stripe_retries_total"
)

// TransferStriped moves size bytes from srcHost to dstHost over the
// planner's chosen path using the given number of parallel sublink
// chains ("stripes"). All stripes share one session identifier and one
// depot path; each stripe is an ordinary resumable data session
// carrying a contiguous byte range of the object, announced through the
// resume-offset option, so every depot pumps it with the standard flow
// machinery and the sink reassembles by absolute offset.
//
// Recovery composes per stripe: a stripe whose chain tears is retried
// under pol with the usual resume-at-acked-offset continuation while
// its siblings keep streaming — a single sublink failure costs one
// stripe's retry, not the transfer. When pol.Failover is set and a
// stripe makes no progress for FailoverAfter consecutive attempts, the
// shared depot path is rerouted around the dead relays exactly as in
// TransferReliable; the reroute is decided once and every sibling's
// next attempt follows the new path. Fatal errors (protocol
// violations, pattern mismatches) abort the whole transfer.
//
// stripes <= 1 (or a size smaller than the stripe count) degrades
// gracefully: the transfer runs with as many stripes as there are
// bytes, and a single stripe is exactly TransferReliable.
func (s *System) TransferStriped(srcHost, dstHost string, size int64, stripes int, pol RecoveryPolicy) (TransferResult, error) {
	if size <= 0 {
		return TransferResult{}, fmt.Errorf("core: transfer size %d must be positive", size)
	}
	if stripes < 1 {
		return TransferResult{}, fmt.Errorf("core: stripe count %d must be positive", stripes)
	}
	if int64(stripes) > size {
		stripes = int(size)
	}
	if stripes == 1 {
		return s.TransferReliable(srcHost, dstHost, size, pol)
	}
	si, di, path, err := s.plan(srcHost, dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	if path == nil {
		path = []int{si, di}
	}
	id, err := wire.NewSessionID()
	if err != nil {
		return TransferResult{}, err
	}
	// One trace id spans every stripe, retry continuation, and failover
	// reroute of this logical transfer.
	tid := mintTrace()
	opts := traceOpt(tid)
	if s.cfg.Integrity {
		// Stripes carry per-chunk checksums but no content digest: the
		// sibling ranges interleave at the sink, so only the per-hop
		// verifiers guard them.
		opts = append(opts, wire.ChunkChecksumOption())
	}
	start := time.Now()
	rt := &route{path: path}
	err = s.run(&send{
		src: si, dst: di, id: id, tid: tid,
		q:      newRangeQueue(lsl.SplitRanges(size, stripes, false)),
		routes: []*route{rt}, workers: stripes,
		pol: pol.withDefaults(), retries: MetricStripeRetries,
		open: func(d lsl.Dialer, path []int, _ int, r *xferRange, from int64) (*lsl.Session, obs.Event, error) {
			src, dst := s.endpoints[path[0]], s.endpoints[path[len(path)-1]]
			sess, err := lsl.OpenStripe(d, src, dst, s.relays(path), id, r.idx, stripes, from, opts...)
			return sess, obs.Event{Peer: s.endpoints[path[1]].String(), Stripe: obs.StripeOf(r.idx)}, err
		},
	})
	out, err := s.finish(size, start, rt.current(), err)
	if err == nil {
		s.cfg.Metrics.Counter(MetricStripedTransfers).Inc()
	}
	return out, err
}
