package core

import (
	"fmt"
	"net"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/graph"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

// Metric names reported by the transfer façade into Config.Metrics.
const (
	MetricTransfers       = "core_transfers_total"
	MetricTransferErrors  = "core_transfer_errors_total"
	MetricTransferBytes   = "core_transfer_bytes_total"
	MetricTransferSeconds = "core_transfer_seconds"
	MetricTransferMbps    = "core_transfer_mbps"
)

// observeTransfer records a completed (or failed) transfer in the
// system's registry. Durations and rates are in emulated time, like
// TransferResult itself.
func (s *System) observeTransfer(res TransferResult, err error) {
	r := s.cfg.Metrics
	if err != nil {
		r.Counter(MetricTransferErrors).Inc()
		return
	}
	r.Counter(MetricTransfers).Inc()
	r.Counter(MetricTransferBytes).Add(res.Bytes)
	// 1 ms .. ~1000 s emulated transfer durations.
	r.Histogram(MetricTransferSeconds, obs.ExpBuckets(1e-3, 2, 20)).Observe(res.Elapsed.Seconds())
	// 1 .. ~16k Mbit/s end-to-end rates.
	r.Histogram(MetricTransferMbps, obs.ExpBuckets(1, 2, 15)).Observe(res.Bandwidth * 8 / 1e6)
}

// emitHop0 reports an initiator-side (hop 0) trace event. tid is the
// end-to-end trace identifier the logical transfer minted; a zero id
// (tracing unavailable) leaves the event uncorrelated.
func (s *System) emitHop0(id wire.SessionID, tid wire.TraceID, src int, kind string, e obs.Event) {
	e.Kind = kind
	e.Session = id.String()
	if !tid.IsZero() {
		e.Trace = tid.String()
	}
	e.Hop = 0
	e.Node = s.endpoints[src].String()
	obs.Emit(s.cfg.Trace, e)
}

// mintTrace draws the end-to-end trace identifier of one logical
// transfer. Tracing is best-effort: an entropy failure yields the zero
// id (no correlation key) rather than failing the transfer.
func mintTrace() wire.TraceID {
	tid, err := wire.NewTraceID()
	if err != nil {
		return wire.TraceID{}
	}
	return tid
}

// traceOpt renders tid as the extra header options an initiator passes
// to the lsl Open family: empty for a zero id, so untraced transfers
// put nothing on the wire.
func traceOpt(tid wire.TraceID) []wire.Option {
	if tid.IsZero() {
		return nil
	}
	return []wire.Option{wire.TraceIDOption(tid)}
}

func graphNode(i int) graph.NodeID { return graph.NodeID(i) }

// TransferResult reports one completed transfer.
type TransferResult struct {
	Bytes int64
	// Elapsed is in emulated time (wall time divided by the time
	// scale).
	Elapsed time.Duration
	// Bandwidth is bytes per emulated second.
	Bandwidth float64
	// Path is the hostname sequence the session traversed (endpoints
	// included).
	Path []string
}

// dialerFor returns the Dialer that originates connections from host i.
func (s *System) dialerFor(i int) lsl.Dialer {
	return lsl.DialerFunc(func(address string) (net.Conn, error) {
		return s.Net.Dial(s.hostAddr(i), address)
	})
}

// resolve maps a host name to its index.
func (s *System) resolve(host string) (int, error) {
	i, ok := s.Topo.HostIndex(host)
	if !ok {
		return 0, fmt.Errorf("core: unknown host %q", host)
	}
	return i, nil
}

// plan resolves both hosts and returns the planner's current path
// between them, or nil when the forecasts hold no route.
func (s *System) plan(srcHost, dstHost string) (si, di int, path []int, err error) {
	if si, err = s.resolve(srcHost); err != nil {
		return 0, 0, nil, err
	}
	if di, err = s.resolve(dstHost); err != nil {
		return 0, 0, nil, err
	}
	path, err = s.Planner.Path(si, di)
	return si, di, path, err
}

// plannedRoute is plan for the unrecovered transfers, which refuse a
// pair the forecasts hold no route for.
func (s *System) plannedRoute(srcHost, dstHost string) ([]int, error) {
	_, _, path, err := s.plan(srcHost, dstHost)
	if err == nil && path == nil {
		err = fmt.Errorf("core: no route %s → %s", srcHost, dstHost)
	}
	return path, err
}

// Transfer moves size bytes from srcHost to dstHost over the planner's
// chosen path (which may be direct), waiting until the sink has
// received and verified every byte.
func (s *System) Transfer(srcHost, dstHost string, size int64) (TransferResult, error) {
	path, err := s.plannedRoute(srcHost, dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	return s.transferAlong(path, size)
}

// TransferWeighted is Transfer with an explicit fair-share weight: the
// session carries wire.OptSessionWeight, so every scheduled depot on
// the path grants it weight× the per-round credit of a weight-1
// session. On an unscheduled deployment the option rides along inert.
func (s *System) TransferWeighted(srcHost, dstHost string, size int64, weight uint16) (TransferResult, error) {
	path, err := s.plannedRoute(srcHost, dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	return s.transferAlong(path, size, wire.SessionWeightOption(weight))
}

// DirectTransfer bypasses the scheduler and moves the bytes over the
// single end-to-end connection, the baseline of every comparison.
func (s *System) DirectTransfer(srcHost, dstHost string, size int64) (TransferResult, error) {
	si, err := s.resolve(srcHost)
	if err != nil {
		return TransferResult{}, err
	}
	di, err := s.resolve(dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	return s.transferAlong([]int{si, di}, size)
}

// PlannedPath reports the host names on the planner's current route.
func (s *System) PlannedPath(srcHost, dstHost string) ([]string, error) {
	_, _, path, err := s.plan(srcHost, dstHost)
	if err != nil {
		return nil, err
	}
	return s.hostNames(path), nil
}

func (s *System) hostNames(path []int) []string {
	names := make([]string, len(path))
	for k, h := range path {
		names[k] = s.Topo.Hosts[h].Name
	}
	return names
}

// transferAlong runs one transfer over an explicit host-index path.
// extra options (trace ids are added here; weights arrive from the
// caller) ride the session header end to end.
func (s *System) transferAlong(path []int, size int64, extra ...wire.Option) (TransferResult, error) {
	if len(path) < 2 {
		return TransferResult{}, fmt.Errorf("core: path needs at least 2 hosts")
	}
	tid := mintTrace()
	opts := append(traceOpt(tid), extra...)
	var id wire.SessionID
	if s.cfg.Integrity {
		// The content digest is keyed by the session id (the payload is
		// the id-seeded pattern), so integrity transfers mint the id
		// before opening instead of letting Open draw one.
		var err error
		if id, err = wire.NewSessionID(); err != nil {
			s.observeTransfer(TransferResult{}, err)
			return TransferResult{}, err
		}
		s.digests.open(id)
		defer s.digests.drop(id)
		opts = append(opts, integrityOptions(id, size)...)
	}
	out, err := s.once(path, size, tid, s.chainOpener(id, opts))
	if err == nil && s.cfg.FeedObservations && len(path) == 2 {
		// A direct transfer doubles as an end-to-end measurement.
		src, dst := path[0], path[1]
		_ = s.Planner.Observe(s.Topo.Hosts[src].Name, s.Topo.Hosts[dst].Name, out.Bandwidth)
	}
	return out, err
}

// once moves size bytes along path as a single-attempt run of the
// engine: one route, one range, no retry — the paper's plain transfer.
func (s *System) once(path []int, size int64, tid wire.TraceID, open opener) (TransferResult, error) {
	if size <= 0 {
		return TransferResult{}, fmt.Errorf("core: transfer size %d must be positive", size)
	}
	start := time.Now()
	err := s.run(&send{
		src: path[0], dst: path[len(path)-1], tid: tid,
		q:      newRangeQueue([]wire.ByteRange{{Len: size}}),
		routes: []*route{{path: path}}, workers: 1,
		pol:     RecoveryPolicy{Retry: retry.Policy{MaxAttempts: 1}, AttemptTimeout: transferTimeout}.withDefaults(),
		retries: MetricRetryAttempts,
		open:    open,
	})
	return s.finish(size, start, path, err)
}

// Replan rebuilds the scheduling trees from the monitor's current
// forecasts, picking up any observations fed back since the last plan.
// Deployments call this on the paper's five-minute cadence.
func (s *System) Replan() error { return s.Planner.Replan() }

// TransferHopByHop moves size bytes using the paper's second routing
// mode: no loose source route — the initiator dials only the first hop
// of its own tree, and each depot forwards by its route table
// ("destination/next hop tuples ... consumed by the logistical depot").
// The reported path is the initiator's planned path; the depots'
// per-node trees may in principle route differently.
func (s *System) TransferHopByHop(srcHost, dstHost string, size int64) (TransferResult, error) {
	path, err := s.plannedRoute(srcHost, dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	tid := mintTrace()
	opts := traceOpt(tid)
	if s.cfg.Integrity {
		// Hop-by-hop sessions get per-hop chunk protection; the
		// end-to-end digest needs the session id before dialing, which
		// Wrap mints internally, so it stays off this path.
		opts = append(opts, wire.ChunkChecksumOption())
	}
	// Dial the first hop with the final destination in the header and
	// NO source route: forwarding decisions belong to the depots.
	return s.once(path, size, tid, s.wrapOpener(path[1], opts))
}

// wrapOpener dials host first and opens a session to the path's
// destination over it with no source route, leaving every forwarding
// decision to the depots' route tables.
func (s *System) wrapOpener(first int, opts []wire.Option) opener {
	return func(d lsl.Dialer, path []int, _ int, _ *xferRange, _ int64) (*lsl.Session, obs.Event, error) {
		tags := obs.Event{Peer: s.endpoints[first].String()}
		conn, err := d.Dial(tags.Peer)
		if err != nil {
			return nil, tags, err
		}
		sess, err := lsl.Wrap(conn, s.endpoints[path[0]], s.endpoints[path[len(path)-1]], opts...)
		return sess, tags, err
	}
}

// awaitReports watches session id for a send outside the engine whose
// n sinks each report the session from offset 0 once; stop ends the
// watch.
func (s *System) awaitReports(id wire.SessionID, n int) (waits []*reportWait, stop func()) {
	q := newRangeQueue(nil)
	s.watch(id, q)
	for range n {
		waits = append(waits, q.expect(0))
	}
	return waits, func() { s.unwatch(q) }
}

// transferTimeout bounds a single emulated transfer in wall time.
const transferTimeout = 2 * time.Minute

func (s *System) result(size int64, elapsed time.Duration, path []int) TransferResult {
	emulated := time.Duration(float64(elapsed) / s.cfg.TimeScale)
	bw := 0.0
	if emulated > 0 {
		bw = float64(size) / emulated.Seconds()
	}
	return TransferResult{
		Bytes:     size,
		Elapsed:   emulated,
		Bandwidth: bw,
		Path:      s.hostNames(path),
	}
}

// finish records a transfer's outcome in the registry: the result of
// size bytes delivered along path since start, or err.
func (s *System) finish(size int64, start time.Time, path []int, err error) (TransferResult, error) {
	if err != nil {
		s.observeTransfer(TransferResult{}, err)
		return TransferResult{}, err
	}
	out := s.result(size, time.Since(start), path)
	s.observeTransfer(out, nil)
	return out, nil
}

// MulticastResult reports a staging operation.
type MulticastResult struct {
	Bytes     int64
	Leaves    []string
	Elapsed   time.Duration // emulated
	Bandwidth float64       // aggregate delivered bytes per emulated second
	Tree      *wire.TreeNode
}

// Multicast stages size bytes from srcHost to every destination host,
// fanning out through the depots on the union of the planner's paths —
// the synchronous application-layer multicast staging option of
// Section 2.
func (s *System) Multicast(srcHost string, dstHosts []string, size int64) (MulticastResult, error) {
	if len(dstHosts) == 0 {
		return MulticastResult{}, fmt.Errorf("core: multicast needs at least one destination")
	}
	si, err := s.resolve(srcHost)
	if err != nil {
		return MulticastResult{}, err
	}
	// Merge the planned unicast paths into one staging tree rooted at
	// the source host's own depot.
	root := &wire.TreeNode{Addr: s.endpoints[si]}
	nodes := map[int]*wire.TreeNode{si: root}
	for _, dh := range dstHosts {
		di, err := s.resolve(dh)
		if err != nil {
			return MulticastResult{}, err
		}
		path, err := s.Planner.Path(si, di)
		if err != nil {
			return MulticastResult{}, err
		}
		if path == nil {
			return MulticastResult{}, fmt.Errorf("core: no route %s → %s", srcHost, dh)
		}
		parent := root
		for _, h := range path[1:] {
			node, ok := nodes[h]
			if !ok {
				node = &wire.TreeNode{Addr: s.endpoints[h]}
				nodes[h] = node
				parent.Children = append(parent.Children, node)
			}
			parent = node
		}
	}

	start := time.Now()
	tid := mintTrace()
	mopts := traceOpt(tid)
	if s.cfg.Integrity {
		// Every duplication point of the staging tree verifies and
		// re-stamps the chunk framing; like hop-by-hop, the digest stays
		// off because OpenMulticast mints the session id itself.
		mopts = append(mopts, wire.ChunkChecksumOption())
	}
	sess, err := lsl.OpenMulticast(s.dialerFor(si), s.endpoints[si], s.endpoints[si], root, mopts...)
	if err != nil {
		s.observeTransfer(TransferResult{}, err)
		return MulticastResult{}, err
	}
	s.emitHop0(sess.ID(), tid, si, obs.KindConnect, obs.Event{Peer: root.Addr.String()})
	// Every leaf's sink reports the whole object once.
	leaves := root.Leaves()
	waits, stop := s.awaitReports(sess.ID(), len(leaves))
	defer stop()

	s.emitHop0(sess.ID(), tid, si, obs.KindFirstByte, obs.Event{})
	if _, err := depot.WritePattern(sessionWriter(sess), sess.ID(), 0, size); err != nil {
		sess.Close()
		s.observeTransfer(TransferResult{}, err)
		return MulticastResult{}, fmt.Errorf("core: multicast send: %w", err)
	}
	sess.Close()
	s.emitHop0(sess.ID(), tid, si, obs.KindLastByte, obs.Event{Bytes: size})

	timeout := time.NewTimer(transferTimeout)
	defer timeout.Stop()
	var delivered int64
	for _, w := range waits {
		select {
		case res := <-w.ch:
			if res.err != nil {
				s.observeTransfer(TransferResult{}, res.err)
				return MulticastResult{}, fmt.Errorf("core: multicast sink: %w", res.err)
			}
			delivered += res.bytes
		case <-timeout.C:
			err := fmt.Errorf("core: multicast timed out after %v", transferTimeout)
			s.observeTransfer(TransferResult{}, err)
			return MulticastResult{}, err
		}
	}
	elapsed := time.Duration(float64(time.Since(start)) / s.cfg.TimeScale)
	bw := 0.0
	if elapsed > 0 {
		bw = float64(delivered) / elapsed.Seconds()
	}
	s.observeTransfer(TransferResult{Bytes: delivered, Elapsed: elapsed, Bandwidth: bw}, nil)
	leafNames := make([]string, len(leaves))
	for k, l := range leaves {
		leafNames[k] = s.Topo.Hosts[s.byAddr[l]].Name
	}
	return MulticastResult{
		Bytes:     delivered,
		Leaves:    leafNames,
		Elapsed:   elapsed,
		Bandwidth: bw,
		Tree:      root,
	}, nil
}
