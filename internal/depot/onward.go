package depot

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// leg is a session's onward side: the next hop's connection with the
// rewritten header already written, or a pipe into deliver when the
// session ends at this depot. Handlers only pick the bytes they write
// into it.
type leg struct {
	io.Writer
	// end closes the leg and drops its session-table entry. A local
	// leg's end waits for deliver and returns its verdict.
	end func() error
}

// legSpec is what differs between the handlers' onward legs.
type legSpec struct {
	kind string // session-table type; "" leaves tracking to the caller
	typ  uint16 // the onward session's type
	// to fixes the next hop, which is then also the onward destination
	// (a multicast child); zero routes the session with nextHop.
	to  wire.Endpoint
	set []wire.Option // options replacing the session's own of the same kinds
	// here consumes a session that ends at this depot; nil pipes it
	// into deliver.
	here func() error
}

// onward opens the session's onward side. It routes the session with
// nextHop, refusing it when routing does; dials the next hop under
// Config.ForwardRetry, falling back to the destination under
// Config.FailoverDirect; writes the rewritten header; and emits
// "connect". A session that ends here goes to o.here, or into a pipe to
// deliver. A nil leg means the session is finished — refused, consumed
// by o.here, or failed — and the error is its outcome.
func (s *Server) onward(sess *lsl.Session, f *flow, o legSpec) (*leg, error) {
	h := sess.Header
	next, dst := o.to, o.to
	var rest []wire.Endpoint
	var local bool
	if next.IsZero() {
		var err error
		if next, rest, local, err = s.nextHop(h); err != nil {
			if errors.Is(err, ErrNoRoute) || errors.Is(err, ErrHopLimit) {
				s.refuse(sess, f, err, &s.met.refused)
				return nil, nil
			}
			return nil, err
		}
		dst = h.Dst
	}
	untrack := func() {}
	if o.kind != "" {
		untrack = s.track(f, h, o.kind, next)
	}
	if local && o.here != nil {
		defer untrack()
		return nil, o.here()
	}
	if local {
		return s.localLeg(onwardHeader(h, o, dst, nil, f.hopIndex()), f, untrack), nil
	}
	out, err := s.dialOnward(next, f)
	if err != nil && s.cfg.FailoverDirect && next != dst {
		// The next hop is gone for good: the rest of the chain is
		// abandoned and the payload goes straight to the destination —
		// degraded (one long sublink) but delivered.
		s.met.failovers.inc()
		f.emit(obs.KindFailover, obs.Event{Peer: dst.String(), Detail: "next hop " + next.String() + " unreachable"})
		s.logf("depot %s: next hop %s unreachable, failing over direct to %s", s.cfg.Self, next, dst)
		next, rest = dst, nil
		out, err = s.dialOnward(next, f)
	}
	if err != nil {
		untrack()
		return nil, fmt.Errorf("onward dial %s: %w", next, err)
	}
	f.emit(obs.KindConnect, obs.Event{Peer: next.String()})
	if err := wire.WriteHeader(out, onwardHeader(h, o, dst, rest, f.hopIndex())); err != nil {
		out.Close()
		untrack()
		return nil, err
	}
	return &leg{Writer: out, end: func() error {
		out.Close()
		untrack()
		return nil
	}}, nil
}

// dialOnward opens the next sublink, retrying transient dial failures
// under Config.ForwardRetry. Every extra attempt is counted and traced,
// so chain-level recovery is visible hop by hop.
func (s *Server) dialOnward(next wire.Endpoint, f *flow) (net.Conn, error) {
	var out net.Conn
	err := s.cfg.ForwardRetry.Do(context.Background(), func(attempt int) error {
		if attempt > 0 {
			s.met.forwardRetries.inc()
			f.emit(obs.KindRetry, obs.Event{Peer: next.String(), Detail: fmt.Sprintf("dial attempt %d", attempt+1)})
		}
		conn, derr := s.cfg.Dial.Dial(next.String())
		out = conn
		return derr
	})
	return out, err
}

// onwardHeader rewrites a session header for the next hop: the leg's
// type and destination, rest as the remaining source route, this
// depot's hop index, and o.set in place of the session's own options of
// the same kinds. The directives this depot consumed (generate, cache
// serve) do not travel on.
func onwardHeader(h *wire.Header, o legSpec, dst wire.Endpoint, rest []wire.Endpoint, hop int) *wire.Header {
	out := &wire.Header{Version: h.Version, Type: o.typ, Session: h.Session, Src: h.Src, Dst: dst}
	for _, opt := range h.Options {
		switch opt.Kind {
		case wire.OptSourceRoute, wire.OptHopIndex, wire.OptGenerate, wire.OptCacheServe:
			continue
		}
		if !slices.ContainsFunc(o.set, func(r wire.Option) bool { return r.Kind == opt.Kind }) {
			out.AddOption(opt)
		}
	}
	for _, opt := range o.set {
		out.AddOption(opt)
	}
	if len(rest) > 0 {
		out.AddOption(wire.SourceRouteOption(rest))
	}
	out.AddOption(wire.HopIndexOption(uint16(hop)))
	return out
}

// localLeg pipes a session that ends at this depot into deliver, so a
// handler that synthesizes, serves or fans out its bytes writes them
// the way it writes any other leg. Should deliver stop reading early,
// the pipe closes under the writer instead of blocking it.
func (s *Server) localLeg(h *wire.Header, f *flow, untrack func()) *leg {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := s.deliver(&lsl.Session{Conn: pipeConn{PipeReader: pr}, Header: h}, f)
		pr.Close()
		done <- err
	}()
	return &leg{Writer: pw, end: func() error {
		pw.Close()
		err := <-done
		untrack()
		return err
	}}
}

// relay pumps src into dst, the writer over leg l, and ends the leg.
// A population tap commits before the leg ends, so the bytes are in the
// cache by the time the next hop sees end-of-stream.
func (s *Server) relay(sess *lsl.Session, f *flow, l *leg, dst io.Writer, src io.Reader, tap *cacheTap) error {
	_, err := s.pump(dst, src, f)
	tap.commit(err == nil)
	s.met.forwarded.inc()
	err = s.flagCorrupt(sess, f, err)
	if eerr := l.end(); err == nil {
		err = eerr
	}
	return err
}

// handleData relays a data session toward its destination, or delivers
// it here straight from its socket. A caching depot that holds the
// session's remaining range serves it from the cache instead.
func (s *Server) handleData(sess *lsl.Session, f *flow) error {
	defer sess.Close()
	l, err := s.onward(sess, f, legSpec{kind: "data", typ: wire.TypeData,
		here: func() error { return s.deliver(sess, f) }})
	if l == nil {
		return err
	}
	if rc := s.cachedRemainder(sess, f); rc != nil {
		defer rc.Close()
		return s.relay(sess, f, l, framedWriter(l, sess.Header), rc, nil)
	}
	src := s.checkedSource(sess)
	tap := s.cacheTap(sess.Header)
	if tap != nil {
		// On-forward cache population: the tap rides after the verifier,
		// so only CRC-proven payload ever enters the cache.
		src = io.TeeReader(src, tap)
	}
	return s.relay(sess, f, l, l, src, tap)
}

// handleGenerate synthesizes the requested bytes and pushes them toward
// the destination as a TypeData session, serving as the evaluation
// harness's traffic source. The bytes go straight into the leg, not
// through the pump.
func (s *Server) handleGenerate(sess *lsl.Session, f *flow) error {
	defer sess.Close()
	opt, found := sess.Header.Option(wire.OptGenerate)
	if !found {
		return fmt.Errorf("generate session %s: %w", sess.Header.Session, wire.ErrOptionMissing)
	}
	size, err := wire.ParseGenerate(opt)
	if err != nil {
		return err
	}
	l, err := s.onward(sess, f, legSpec{kind: "generate", typ: wire.TypeData})
	if l == nil {
		return err
	}
	// A checksummed generate session frames the synthesized stream so
	// every downstream hop verifies it like any other payload.
	n, err := WritePattern(framedWriter(l, sess.Header), sess.Header.Session, 0, int64(size))
	s.met.generated.inc()
	s.met.bytesForwarded.add(n)
	if err != nil {
		err = fmt.Errorf("generate: %w", err)
	}
	if eerr := l.end(); err == nil {
		err = eerr
	}
	return err
}
