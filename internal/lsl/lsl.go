// Package lsl implements the Logistical Session Layer over any
// net.Conn transport: session establishment with loose source routes,
// the initiator and sink sides of point-to-point data sessions,
// generate-data test requests, and multicast staging sessions.
//
// The session layer binds end-to-end communication to a chain of
// transport connections instead of a single one: the initiator opens a
// connection to the first hop (a depot or the final sink), writes the
// session header, and streams the payload; each depot pops itself off
// the source route and forwards (internal/depot). "Serial, rather than
// parallel, sockets" — Section 2.
package lsl

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// Metric names reported by session setup when a registry is installed
// with SetMetrics.
const (
	MetricSessionsOpened   = "lsl_sessions_opened_total"
	MetricSessionsAccepted = "lsl_sessions_accepted_total"
	MetricRefusalsIssued   = "lsl_refusals_issued_total"
	MetricRefusalsSeen     = "lsl_refusals_seen_total"
	MetricDialErrors       = "lsl_dial_errors_total"
	MetricSetupSeconds     = "lsl_session_setup_seconds"
)

// metricsReg is the process-wide registry session setup reports into.
// It is package-level (rather than threaded through every Open call)
// because session establishment has no configuration object; a nil
// registry makes every report a no-op.
var metricsReg atomic.Pointer[obs.Registry]

// SetMetrics installs the registry that session setup (Open, Accept,
// Refuse, Fetch and friends) reports into. Passing nil disables
// reporting. Safe for concurrent use.
func SetMetrics(r *obs.Registry) { metricsReg.Store(r) }

func metrics() *obs.Registry { return metricsReg.Load() }

// setupBuckets spans 100 µs to ~3 s of dial+header latency.
var setupBuckets = obs.ExpBuckets(1e-4, 2, 15)

// Dialer abstracts transport connection establishment so sessions run
// identically over the emulated network, real TCP, or test doubles.
type Dialer interface {
	Dial(address string) (net.Conn, error)
}

// DialerFunc adapts a function to the Dialer interface.
type DialerFunc func(address string) (net.Conn, error)

// Dial implements Dialer.
func (f DialerFunc) Dial(address string) (net.Conn, error) { return f(address) }

// Session is an established LSL session: a byte stream plus the header
// that routed it.
type Session struct {
	net.Conn
	Header *wire.Header
}

// ID returns the session identifier.
func (s *Session) ID() wire.SessionID { return s.Header.Session }

// Open establishes a data session from src to dst through the given
// loose source route of depot endpoints (empty route = direct). It
// dials the first hop, writes the session header carrying the remaining
// route, and returns the session ready for payload writes. Closing the
// session propagates end-of-stream down the chain.
//
// Extra options (here and on the whole Open family) are appended to the
// header verbatim — the hook initiators thread end-to-end metadata such
// as wire.TraceIDOption through without the session layer knowing it.
func Open(d Dialer, src, dst wire.Endpoint, route []wire.Endpoint, extra ...wire.Option) (*Session, error) {
	return open(d, src, dst, route, wire.TypeData, cloneOpts(nil, extra))
}

// cloneOpts appends extra to a fresh copy of opts, so the variadic
// slice a caller may reuse is never aliased into a header.
func cloneOpts(opts, extra []wire.Option) []wire.Option {
	if len(extra) == 0 {
		return opts
	}
	out := make([]wire.Option, 0, len(opts)+len(extra))
	out = append(out, opts...)
	return append(out, extra...)
}

// OpenAt is Open for a resumed transfer: the session header carries a
// resume-offset option announcing that the payload stream begins at the
// given absolute byte offset. Depots forward the option untouched; the
// sink appends from that offset instead of restarting. An offset of 0
// is identical to Open.
func OpenAt(d Dialer, src, dst wire.Endpoint, route []wire.Endpoint, offset int64, extra ...wire.Option) (*Session, error) {
	if offset < 0 {
		return nil, fmt.Errorf("lsl: negative resume offset %d", offset)
	}
	var opts []wire.Option
	if offset > 0 {
		opts = []wire.Option{wire.ResumeOffsetOption(uint64(offset))}
	}
	return open(d, src, dst, route, wire.TypeData, cloneOpts(opts, extra))
}

// OpenAtID is OpenAt with a caller-chosen session identifier, so every
// attempt of a reliable transfer — the original and each resume after
// a fault — presents the same id to the sink. That shared identity is
// what lets receiver-side state that must span attempts (the running
// end-to-end content digest) follow one object across its retries.
func OpenAtID(d Dialer, id wire.SessionID, src, dst wire.Endpoint, route []wire.Endpoint, offset int64, extra ...wire.Option) (*Session, error) {
	if offset < 0 {
		return nil, fmt.Errorf("lsl: negative resume offset %d", offset)
	}
	var opts []wire.Option
	if offset > 0 {
		opts = []wire.Option{wire.ResumeOffsetOption(uint64(offset))}
	}
	return openWithID(d, id, src, dst, route, wire.TypeData, cloneOpts(opts, extra))
}

// OpenStripe opens one stripe of a striped transfer: stripe index of
// count parallel sublink chains that together move a single object
// under the shared session identifier id. The stripe's payload is the
// contiguous byte range beginning at absolute object offset — carried
// as a resume-offset option, so depots and the sink handle a stripe
// with exactly the machinery of a resumed transfer and reassemble by
// absolute offset. A failed stripe is reopened with the same id and
// index and a deeper offset; its siblings are untouched.
func OpenStripe(d Dialer, src, dst wire.Endpoint, route []wire.Endpoint, id wire.SessionID, index, count int, offset int64, extra ...wire.Option) (*Session, error) {
	if count < 1 || index < 0 || index >= count {
		return nil, fmt.Errorf("lsl: stripe %d of %d out of range", index, count)
	}
	if count > int(^uint16(0)) {
		return nil, fmt.Errorf("lsl: stripe count %d exceeds wire limit", count)
	}
	if offset < 0 {
		return nil, fmt.Errorf("lsl: negative stripe offset %d", offset)
	}
	opts := []wire.Option{
		wire.StripeCountOption(uint16(count)),
		wire.StripeIndexOption(uint16(index)),
	}
	if offset > 0 {
		opts = append(opts, wire.ResumeOffsetOption(uint64(offset)))
	}
	return openWithID(d, id, src, dst, route, wire.TypeData, cloneOpts(opts, extra))
}

// OpenPath opens one pinned-route session of a multipath transfer:
// route index of count edge-disjoint depot routes that together move a
// single object under the shared session identifier id, grouped by the
// path-set identifier set. The session's payload is a contiguous byte
// range beginning at absolute object offset — carried as a
// resume-offset option, exactly as a stripe's is, so depots and the
// sink reassemble by absolute offset with the standard machinery. The
// explicit route pins the session to its disjoint path: depots forward
// along the carried loose source route (and the path options ride
// along untouched) instead of consulting their own tables. A failed
// range is reopened with the same set and index at a deeper offset —
// or by a different path worker stealing the range, in which case only
// the index differs.
func OpenPath(d Dialer, src, dst wire.Endpoint, route []wire.Endpoint, id, set wire.SessionID, index, count int, offset int64, extra ...wire.Option) (*Session, error) {
	if count < 1 || index < 0 || index >= count {
		return nil, fmt.Errorf("lsl: path %d of %d out of range", index, count)
	}
	if count > int(^uint16(0)) {
		return nil, fmt.Errorf("lsl: path count %d exceeds wire limit", count)
	}
	if offset < 0 {
		return nil, fmt.Errorf("lsl: negative path offset %d", offset)
	}
	opts := []wire.Option{
		wire.PathSetIDOption(set),
		wire.PathIndexOption(uint16(index), uint16(count)),
	}
	if offset > 0 {
		opts = append(opts, wire.ResumeOffsetOption(uint64(offset)))
	}
	return openWithID(d, id, src, dst, route, wire.TypeData, cloneOpts(opts, extra))
}

// SplitRanges cuts a size-byte object into the contiguous ranges its
// workers carry: the stripes of OpenStripe or the routes of OpenPath.
// Without rebalance every worker gets exactly one range. With
// rebalance each worker gets several, so a faster route can pull more
// of them, but no range shrinks below 64 KiB: tinier ranges spend more
// time in session setup than in transfer. There are never fewer ranges
// than workers, unless the object has fewer bytes than that. Range
// lengths differ by at most one byte.
func SplitRanges(size int64, workers int, rebalance bool) []wire.ByteRange {
	const perWorker, minRange = 4, 64 << 10
	n := workers
	if rebalance {
		n = max(workers, min(workers*perWorker, int(size/minRange)))
	}
	n = int(min(int64(n), size))
	base, rem := size/int64(n), size%int64(n)
	out := make([]wire.ByteRange, n)
	var off int64
	for k := range out {
		out[k] = wire.ByteRange{Off: off, Len: base}
		if int64(k) < rem {
			out[k].Len++
		}
		off += out[k].Len
	}
	return out
}

// TimeoutDialer bounds each Dial through d to the given timeout,
// giving per-hop connect timeouts to transports (like the emulated
// network) whose dials cannot otherwise be interrupted. On timeout the
// abandoned connection, if it eventually materializes, is closed.
func TimeoutDialer(d Dialer, timeout time.Duration) Dialer {
	if timeout <= 0 {
		return d
	}
	return DialerFunc(func(address string) (net.Conn, error) {
		type result struct {
			conn net.Conn
			err  error
		}
		ch := make(chan result, 1)
		go func() {
			conn, err := d.Dial(address)
			ch <- result{conn, err}
		}()
		select {
		case r := <-ch:
			return r.conn, r.err
		case <-time.After(timeout):
			go func() {
				if r := <-ch; r.conn != nil {
					r.conn.Close()
				}
			}()
			return nil, fmt.Errorf("lsl: dial %s: %w", address, os.ErrDeadlineExceeded)
		}
	})
}

// OpenGenerate asks the first hop (a depot) to synthesize size bytes of
// test data and forward them toward dst along the remaining route —
// the paper's "mechanism that requests a depot to generate some amount
// of arbitrary data". The returned session carries no payload from the
// initiator; it reads the depot's completion close.
func OpenGenerate(d Dialer, src, dst wire.Endpoint, route []wire.Endpoint, size uint64, extra ...wire.Option) (*Session, error) {
	gen := wire.GenerateOption(size)
	return open(d, src, dst, route, wire.TypeGenerate, cloneOpts([]wire.Option{gen}, extra))
}

// OpenChecked is Open followed by a short listen for a refusal: the
// depot's load-based session negotiation is optimistic (no news is good
// news), so after writing the header the initiator waits up to the
// given grace period for a TypeRefuse response before streaming.
// ErrRefused is returned when the depot declined; a quiet wire means
// the session is accepted.
func OpenChecked(d Dialer, src, dst wire.Endpoint, route []wire.Endpoint, grace time.Duration, extra ...wire.Option) (*Session, error) {
	sess, err := Open(d, src, dst, route, extra...)
	if err != nil {
		return nil, err
	}
	if grace <= 0 {
		return sess, nil
	}
	if err := sess.SetReadDeadline(time.Now().Add(grace)); err != nil {
		// Transport without deadlines: skip the check.
		return sess, nil //nolint:nilerr // optimistic acceptance
	}
	resp, rerr := wire.ReadHeader(sess)
	_ = sess.SetReadDeadline(time.Time{})
	if rerr == nil && resp.Type == wire.TypeRefuse {
		sess.Close()
		metrics().Counter(MetricRefusalsSeen).Inc()
		return nil, ErrRefused
	}
	// Timeout (or any read failure) means nobody refused us.
	return sess, nil
}

// OpenStore establishes an asynchronous session: the payload travels
// the route but the final depot (dst) holds it instead of delivering,
// keyed by the returned session's id. A receiver that learns the id
// retrieves it with Fetch — the paper's asynchronous mode.
func OpenStore(d Dialer, src, dst wire.Endpoint, route []wire.Endpoint, extra ...wire.Option) (*Session, error) {
	return open(d, src, dst, route, wire.TypeStore, cloneOpts(nil, extra))
}

// Fetch retrieves the payload stored under id at the given depot. It
// returns a session positioned at the start of the payload; the caller
// reads to EOF and closes. ErrRefused means the depot holds no such
// session.
func Fetch(d Dialer, self, depotAddr wire.Endpoint, id wire.SessionID) (*Session, error) {
	t0 := time.Now()
	conn, err := dialHop(d, depotAddr.String())
	if err != nil {
		return nil, fmt.Errorf("lsl: dial %s: %w", depotAddr, err)
	}
	req, err := start(conn, self, depotAddr, wire.TypeFetch, []wire.Option{wire.FetchIDOption(id)})
	if err != nil {
		return nil, err
	}
	observeSetup(t0)
	resp, err := wire.ReadHeader(req)
	if err != nil {
		req.Close()
		return nil, fmt.Errorf("lsl: fetch response: %w", err)
	}
	if resp.Type == wire.TypeRefuse {
		req.Close()
		metrics().Counter(MetricRefusalsSeen).Inc()
		return nil, ErrRefused
	}
	if resp.Type != wire.TypeData || resp.Session != id {
		req.Close()
		return nil, fmt.Errorf("lsl: unexpected fetch response type %d session %s", resp.Type, resp.Session)
	}
	return &Session{Conn: req.Conn, Header: resp}, nil
}

// OpenMulticast establishes a staging session whose payload is fanned
// out to every leaf of the tree. The tree's root must be the first hop
// to dial; dst conventionally names the initiator's primary sink and is
// informational for multicast sessions.
func OpenMulticast(d Dialer, src, dst wire.Endpoint, tree *wire.TreeNode, extra ...wire.Option) (*Session, error) {
	opt, err := wire.MulticastTreeOption(tree)
	if err != nil {
		return nil, fmt.Errorf("lsl: %w", err)
	}
	t0 := time.Now()
	conn, err := dialHop(d, tree.Addr.String())
	if err != nil {
		return nil, fmt.Errorf("lsl: dial %s: %w", tree.Addr, err)
	}
	sess, err := start(conn, src, dst, wire.TypeMulticast, cloneOpts([]wire.Option{opt}, extra))
	if err == nil {
		observeSetup(t0)
	}
	return sess, err
}

// dialHop dials through d, counting failures.
func dialHop(d Dialer, addr string) (net.Conn, error) {
	conn, err := d.Dial(addr)
	if err != nil {
		metrics().Counter(MetricDialErrors).Inc()
	}
	return conn, err
}

// observeSetup records one successful session establishment.
func observeSetup(t0 time.Time) {
	r := metrics()
	r.Counter(MetricSessionsOpened).Inc()
	r.Histogram(MetricSetupSeconds, setupBuckets).Observe(time.Since(t0).Seconds())
}

func open(d Dialer, src, dst wire.Endpoint, route []wire.Endpoint, typ uint16, opts []wire.Option) (*Session, error) {
	id, err := wire.NewSessionID()
	if err != nil {
		return nil, err
	}
	return openWithID(d, id, src, dst, route, typ, opts)
}

// openWithID is open with a caller-chosen session identifier, so the
// stripes of one transfer can share an id.
func openWithID(d Dialer, id wire.SessionID, src, dst wire.Endpoint, route []wire.Endpoint, typ uint16, opts []wire.Option) (*Session, error) {
	if dst.IsZero() {
		return nil, errors.New("lsl: zero destination endpoint")
	}
	t0 := time.Now()
	hops := append(append([]wire.Endpoint(nil), route...), dst)
	first := hops[0]
	rest := hops[1:]
	conn, err := dialHop(d, first.String())
	if err != nil {
		return nil, fmt.Errorf("lsl: dial %s: %w", first, err)
	}
	if len(rest) > 0 {
		opts = append(opts, wire.SourceRouteOption(rest))
	}
	sess, err := startWithID(conn, id, src, dst, typ, opts)
	if err == nil {
		observeSetup(t0)
	}
	return sess, err
}

// Wrap opens a plain data session on an already-dialed transport
// connection with no source route: the header names only src and dst,
// leaving every forwarding decision to depot route tables (the paper's
// hop-by-hop mode).
func Wrap(conn net.Conn, src, dst wire.Endpoint, extra ...wire.Option) (*Session, error) {
	if dst.IsZero() {
		conn.Close()
		return nil, errors.New("lsl: zero destination endpoint")
	}
	return start(conn, src, dst, wire.TypeData, cloneOpts(nil, extra))
}

func start(conn net.Conn, src, dst wire.Endpoint, typ uint16, opts []wire.Option) (*Session, error) {
	id, err := wire.NewSessionID()
	if err != nil {
		conn.Close()
		return nil, err
	}
	return startWithID(conn, id, src, dst, typ, opts)
}

// startWithID writes the session header for an already-chosen id on an
// already-dialed transport.
func startWithID(conn net.Conn, id wire.SessionID, src, dst wire.Endpoint, typ uint16, opts []wire.Option) (*Session, error) {
	h := &wire.Header{
		Version: wire.Version1,
		Type:    typ,
		Session: id,
		Src:     src,
		Dst:     dst,
		Options: opts,
	}
	if err := wire.WriteHeader(conn, h); err != nil {
		conn.Close()
		return nil, err
	}
	return &Session{Conn: conn, Header: h}, nil
}

// Accept reads the session header from a just-accepted transport
// connection, returning the session positioned at the start of the
// payload. Sinks and depots both begin with this.
func Accept(conn net.Conn) (*Session, error) {
	h, err := wire.ReadHeader(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if h.Type == wire.TypeRefuse {
		conn.Close()
		metrics().Counter(MetricRefusalsSeen).Inc()
		return nil, ErrRefused
	}
	metrics().Counter(MetricSessionsAccepted).Inc()
	return &Session{Conn: conn, Header: h}, nil
}

// ErrRefused indicates the remote depot declined the session.
var ErrRefused = errors.New("lsl: session refused by depot")

// Refuse writes a refusal header mirroring the request and closes the
// connection — the "session negotiation that allows a potential depot
// to refuse a new connection based on host load" the paper proposes.
func Refuse(conn net.Conn, req *wire.Header) error {
	defer conn.Close()
	metrics().Counter(MetricRefusalsIssued).Inc()
	h := &wire.Header{
		Version: wire.Version1,
		Type:    wire.TypeRefuse,
		Session: req.Session,
		Src:     req.Src,
		Dst:     req.Dst,
	}
	return wire.WriteHeader(conn, h)
}
