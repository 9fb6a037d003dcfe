package core

import (
	"fmt"
	"time"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// Multipath metric names reported into Config.Metrics.
const (
	// MetricMultipathTransfers counts completed multipath transfers.
	MetricMultipathTransfers = "core_multipath_transfers_total"
	// MetricMultipathRangesStolen counts chunk ranges an idle route
	// stole from a slower sibling rather than letting it hold the tail.
	MetricMultipathRangesStolen = "core_multipath_ranges_stolen_total"
	// MetricMultipathDuplicateAcks counts double completions — a stolen
	// range delivered by both its owner and the thief; first ack wins,
	// the duplicate is harmless and counted here.
	MetricMultipathDuplicateAcks = "core_multipath_duplicate_acks_total"
	// MetricMultipathPathFailures counts route workers that died with
	// their ranges drained to the surviving routes.
	MetricMultipathPathFailures = "core_multipath_path_failures_total"
	// MetricMultipathDigestVerified counts multipath transfers whose
	// end-to-end SHA-256, stitched across every route at the sink,
	// matched the sender's digest.
	MetricMultipathDigestVerified = "core_multipath_digest_verified_total"
)

// MultipathResult reports one completed multipath transfer.
type MultipathResult struct {
	TransferResult
	// Routes holds the final depot route of each path worker, by path
	// index (a route that failed over mid-transfer shows its last
	// shape).
	Routes [][]string
	// Stolen counts ranges re-dispatched to an idle route.
	Stolen int
	// DuplicateAcks counts double completions resolved first-ack-wins.
	DuplicateAcks int
}

// TransferMultipath moves size bytes from srcHost to dstHost as one
// logical transfer fanned across up to k edge-disjoint depot routes.
// The planner extracts the routes (best minimax bottleneck first,
// fewer when the graph runs out of disjoint routes); each route runs a
// pinned-route worker that pulls contiguous chunk ranges from a shared
// work queue, so a route self-clocks to its observed throughput — a
// fast route simply pulls more ranges, and once the queue drains an
// idle route steals the largest in-flight remainder so a slow or
// killed route never holds the tail. Double completion from a stolen
// range is resolved first-ack-wins in the work queue.
//
// Every session shares the transfer's session id (sinks reassemble by
// absolute offset, as with stripes), trace id, and — under
// Config.Integrity — the whole-object content digest, stitched across
// routes by the out-of-order digest tracker. Each session additionally
// carries the path-set id and its (index, count) route coordinate;
// depots forward both untouched.
//
// Recovery composes per route: a torn range retries under pol with
// resume-at-acked-offset, a starved route fails over around its dead
// relays exactly as in TransferReliable, and a route that exhausts its
// attempts dies alone — its claimed ranges drain back to the queue for
// the surviving routes. The transfer fails only on a fatal error or
// when every route dies with ranges still undelivered.
//
// k <= 1 (or a planner that finds a single route) degrades to the
// single-path TransferReliable machinery.
func (s *System) TransferMultipath(srcHost, dstHost string, size int64, k int, pol RecoveryPolicy) (MultipathResult, error) {
	if size <= 0 {
		return MultipathResult{}, fmt.Errorf("core: transfer size %d must be positive", size)
	}
	if k < 1 {
		return MultipathResult{}, fmt.Errorf("core: path count %d must be positive", k)
	}
	si, err := s.resolve(srcHost)
	if err != nil {
		return MultipathResult{}, err
	}
	di, err := s.resolve(dstHost)
	if err != nil {
		return MultipathResult{}, err
	}
	paths, err := s.Planner.DisjointPaths(si, di, k)
	if err != nil {
		return MultipathResult{}, err
	}
	if len(paths) <= 1 || size < 2 {
		res, err := s.TransferReliable(srcHost, dstHost, size, pol)
		if err != nil {
			return MultipathResult{}, err
		}
		return MultipathResult{TransferResult: res, Routes: [][]string{res.Path}}, nil
	}

	id, err := wire.NewSessionID()
	if err != nil {
		return MultipathResult{}, err
	}
	set, err := wire.NewSessionID()
	if err != nil {
		return MultipathResult{}, err
	}
	tid := mintTrace()
	opts := traceOpt(tid)
	if s.cfg.Integrity {
		// Unlike stripes, multipath ranges keep the whole-object digest:
		// the sink's out-of-order tracker stitches the routes' contiguous
		// ranges into one end-to-end SHA-256. Computing it means
		// regenerating and hashing the full pattern, so do it once here
		// instead of once per range session.
		opts = append(opts, integrityOptions(id, size)...)
		s.digests.open(id)
		defer s.digests.drop(id)
	}
	count := len(paths)
	routes := make([]*route, count)
	for w := range paths {
		routes[w] = &route{path: paths[w]}
	}
	q := newRangeQueue(lsl.SplitRanges(size, count, true))
	start := time.Now()
	err = s.run(&send{
		src: si, dst: di, id: id, tid: tid, q: q,
		routes: routes, workers: 1,
		pol: pol.withDefaults(), retries: MetricStripeRetries,
		open: func(d lsl.Dialer, path []int, w int, _ *xferRange, from int64) (*lsl.Session, obs.Event, error) {
			src, dst := s.endpoints[path[0]], s.endpoints[path[len(path)-1]]
			sess, err := lsl.OpenPath(d, src, dst, s.relays(path), id, set, w, count, from, opts...)
			return sess, obs.Event{Peer: s.endpoints[path[1]].String(), Path: obs.PathOf(w)}, err
		},
	})

	out := MultipathResult{Routes: make([][]string, count)}
	for w, rt := range routes {
		out.Routes[w] = s.hostNames(rt.current())
	}
	q.mu.Lock()
	out.Stolen, out.DuplicateAcks = q.stolen, q.dups
	q.mu.Unlock()
	r := s.cfg.Metrics
	r.Counter(MetricMultipathRangesStolen).Add(int64(out.Stolen))
	r.Counter(MetricMultipathDuplicateAcks).Add(int64(out.DuplicateAcks))
	res, err := s.finish(size, start, routes[0].current(), err)
	if err != nil {
		return MultipathResult{}, err
	}
	out.TransferResult = res
	r.Counter(MetricMultipathTransfers).Inc()
	return out, nil
}
