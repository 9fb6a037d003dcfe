package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// dialTimeout matches lsl-depot's -dial-timeout default.
const dialTimeout = 10 * time.Second

// maxHops matches lsl-depot's -max-hops default.
const maxHops = 16

// hop is one depot process of the chain: a depot.Server behind its own
// loopback listener, served by the benchmark's accept loop so each
// Handle call can be timed from outside.
type hop struct {
	index int // 1-based position in the chain
	sink  bool
	srv   *depot.Server
	ln    net.Listener
	ep    wire.Endpoint
	loop  sync.WaitGroup // the accept loop
	conns sync.WaitGroup // Handle calls in flight
}

// tcpRig is a chain of depots on 127.0.0.1: relays in route order,
// then a sink depot whose Local handler verifies every object and
// reports to the waiting client.
type tcpRig struct {
	reg    *obs.Registry
	hops   []*hop // relays, then the sink
	src    wire.Endpoint
	client lsl.Dialer // the source's dialer; not counted as a depot dial
	tr     atomic.Pointer[tracer]
	dials  atomic.Int64

	waiters sync.Map // wire.SessionID -> *waiter
	strays  atomic.Int64
	seed    int64
	nextID  atomic.Uint64

	cache *cache.Cache // on the first relay, when the workload has one
}

// waiter is a client blocked on the sink's verdict for one session.
type waiter struct {
	start      time.Time
	want       int64 // payload bytes the sink must see
	xfer, root uint64
	done       chan error // buffered: the sink never blocks on it
}

// newTCPRig starts relays+1 depots on loopback, all reporting into
// reg. c, when non-nil, is the first relay's content cache.
func newTCPRig(reg *obs.Registry, seed int64, relays int, c *cache.Cache) (*tcpRig, error) {
	r := &tcpRig{
		reg:   reg,
		src:   wire.MustEndpoint("127.0.0.1:7400"),
		seed:  seed,
		cache: c,
		client: lsl.DialerFunc(func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dialTimeout)
		}),
	}
	// lsl-depot installs its registry as the session layer's too.
	lsl.SetMetrics(r.reg)
	table := obs.NewSessionTable()
	for i := 0; i <= relays; i++ {
		h := &hop{index: i + 1, sink: i == relays}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		h.ln = ln
		if h.ep, err = wire.ParseEndpoint(ln.Addr().String()); err != nil {
			ln.Close()
			r.close()
			return nil, err
		}
		cfg := depot.Config{
			Self:          h.ep,
			Dial:          r.depotDialer(),
			PipelineBytes: depot.DefaultPipelineBytes,
			StoreBytes:    depot.DefaultStoreBytes,
			MaxHops:       maxHops,
			Metrics:       r.reg,
			Sessions:      table,
		}
		if h.sink {
			cfg.Local = r.deliver
		} else if i == 0 {
			cfg.Cache = c
		}
		if h.srv, err = depot.New(cfg); err != nil {
			ln.Close()
			r.close()
			return nil, err
		}
		r.hops = append(r.hops, h)
		h.loop.Add(1)
		go r.serve(h)
	}
	return r, nil
}

// depotDialer is the Config.Dial every depot gets: a TCP dial, timed
// and counted from outside.
func (r *tcpRig) depotDialer() lsl.Dialer {
	return lsl.DialerFunc(func(addr string) (net.Conn, error) {
		r.dials.Add(1)
		tr := r.tr.Load()
		if tr == nil {
			return net.DialTimeout("tcp", addr, dialTimeout)
		}
		t0 := time.Now()
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		tr.record("depot.dial", 0, 0, 0, 0, t0, time.Now())
		return conn, err
	})
}

// serve is the hop's accept loop: Serve's job, with each Handle timed.
func (r *tcpRig) serve(h *hop) {
	defer h.loop.Done()
	name := "depot.handle"
	if h.sink {
		name = "depot.sink_handle"
	}
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed by close()
		}
		h.conns.Add(1)
		go func() {
			defer h.conns.Done()
			tr := r.tr.Load()
			if tr == nil {
				h.srv.Handle(conn)
				return
			}
			t0 := time.Now()
			h.srv.Handle(conn)
			tr.record(name, 0, 0, 0, h.index, t0, time.Now())
		}()
	}
}

func (r *tcpRig) setTracer(tr *tracer) { r.tr.Store(tr) }

func (r *tcpRig) sinkEP() wire.Endpoint { return r.hops[len(r.hops)-1].ep }

// route is the loose source route through every relay.
func (r *tcpRig) route() []wire.Endpoint {
	out := make([]wire.Endpoint, 0, len(r.hops)-1)
	for _, h := range r.hops[:len(r.hops)-1] {
		out = append(out, h.ep)
	}
	return out
}

// sessionID derives a distinct session id from the seed, so repeated
// runs of one seed open the same sessions.
func (r *tcpRig) sessionID() wire.SessionID {
	return mkID(r.seed, 0xffff, r.nextID.Add(1))
}

// expect registers a waiter for id before the session is opened, so the
// sink can never report before the client is listening.
func (r *tcpRig) expect(id wire.SessionID, want int64, start time.Time, xfer, root uint64) *waiter {
	w := &waiter{start: start, want: want, xfer: xfer, root: root, done: make(chan error, 1)}
	r.waiters.Store(id, w)
	return w
}

// await blocks for the sink's verdict on w's session.
func (r *tcpRig) await(id wire.SessionID, w *waiter) error {
	defer r.waiters.Delete(id)
	timer := time.NewTimer(5*time.Second + time.Duration(w.want/(5<<20))*time.Second)
	defer timer.Stop()
	select {
	case err := <-w.done:
		return err
	case <-timer.C:
		return fmt.Errorf("session %s: no verdict from the sink", id)
	}
}

// push opens a data session along route, writes obj and waits for the
// sink to verify it.
func (r *tcpRig) push(id wire.SessionID, obj *object, route []wire.Endpoint, tr *tracer, xfer, root uint64, start time.Time) error {
	w := r.expect(id, obj.size, start, xfer, root)
	t0 := time.Now()
	sess, err := lsl.OpenAtID(r.client, id, r.src, r.sinkEP(), route, 0, obj.opts...)
	t1 := time.Now()
	tr.record("lsl.open", 0, root, xfer, 0, t0, t1)
	if err != nil {
		r.waiters.Delete(id)
		return err
	}
	_, werr := sess.Write(obj.wire)
	cerr := sess.Close()
	tr.record("src.write", 0, root, xfer, 0, t1, time.Now())
	if werr != nil || cerr != nil {
		r.waiters.Delete(id)
		return fmt.Errorf("send %d bytes: %w", obj.size, errors.Join(werr, cerr))
	}
	return r.await(id, w)
}

// deliver is the sink depot's Config.Local: it reads the session to
// the end, verifies it against what its client sent, and hands the
// verdict to the waiting client.
func (r *tcpRig) deliver(sess *lsl.Session) error {
	v, ok := r.waiters.Load(sess.ID())
	if !ok {
		r.strays.Add(1)
		_, _ = io.Copy(io.Discard, sess) // drain; the session is counted as a stray
		return fmt.Errorf("session %s: no client waiting", sess.ID())
	}
	w := v.(*waiter)
	err := r.verify(sess, w)
	select {
	case w.done <- err:
	default:
		r.strays.Add(1) // a second delivery under one id
	}
	return err
}

// verify checks a delivered session: framed sessions by the SHA-256 in
// the header's content digest, plain ones by the id-seeded pattern,
// and every session by its length.
func (r *tcpRig) verify(sess *lsl.Session, w *waiter) error {
	tr := r.tr.Load()
	var src io.Reader = sess
	if sess.Header.Checksummed() {
		src = wire.NewFrameReader(sess)
	}
	want, digested := sess.Header.ContentDigest()
	var h hash.Hash
	if digested {
		h = sha256.New()
	}
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	buf := *bp
	base := sess.Header.ResumeOffset()
	var (
		total   int64
		bad     error
		hashDur time.Duration
	)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if total == 0 && tr != nil {
				tr.record("sink.first_byte", 0, w.root, w.xfer, 0, w.start, time.Now())
			}
			switch {
			case bad != nil:
			case digested && tr != nil:
				t0 := time.Now()
				h.Write(buf[:n])
				hashDur += time.Since(t0)
			case digested:
				h.Write(buf[:n])
			default:
				if perr := depot.VerifyPattern(buf[:n], sess.ID(), base+total); perr != nil {
					bad = fmt.Errorf("%w: %v", errUnverified, perr)
				}
			}
			total += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			if bad == nil {
				bad = fmt.Errorf("%w: after %d bytes: %v", errUnverified, total, err)
			}
			break
		}
	}
	if tr != nil && digested {
		tr.add("sink.digest_ns", hashDur.Nanoseconds())
		tr.add("sink.digest_bytes", total)
	}
	if bad != nil {
		return bad
	}
	if base+total != w.want {
		return fmt.Errorf("%w: %d bytes delivered, %d sent", errUnverified, base+total, w.want)
	}
	if digested {
		var sum [wire.DigestLen]byte
		h.Sum(sum[:0])
		if base != 0 || want.Size != total || sum != want.Sum {
			return fmt.Errorf("%w: %w", errUnverified, wire.ErrDigest)
		}
	}
	return nil
}

// layers reads depot Stats, the shared registry and the cache.
func (r *tcpRig) layers() layerSnap {
	var l layerSnap
	for _, h := range r.hops {
		st := h.srv.Stats()
		l.refused += st.Refused
		l.errors += st.Errors
		l.checksumErrs += st.ChecksumErrors
	}
	registryLayers(r.reg, &l)
	l.dials = r.dials.Load()
	if r.cache != nil {
		cs := r.cache.Stats()
		l.cacheEvictions = cs.Evictions
		l.cacheMem, l.cacheDisk = cs.MemBytes, cs.DiskBytes
	}
	return l
}

// close stops accepting and waits for every in-flight session.
func (r *tcpRig) close() error {
	var errs []error
	for _, h := range r.hops {
		// The accept loop is ours, so Shutdown has no Serve sessions to
		// drain; it marks the server closed and conns is waited below.
		h.srv.Shutdown(time.Second)
		h.ln.Close()
		h.loop.Wait()
		done := make(chan struct{})
		go func() {
			h.conns.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			errs = append(errs, fmt.Errorf("depot %s: sessions still running after 10s", h.ep))
		}
	}
	lsl.SetMetrics(nil)
	return errors.Join(errs...)
}
