package depot

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// addBytes records payload progress in the live session entry.
func (f *flow) addBytes(n int64) {
	if f != nil {
		f.entry.AddBytes(n)
	}
}

// addQueued moves the session's pipeline-occupancy figure.
func (f *flow) addQueued(n int64) {
	if f != nil {
		f.entry.AddQueued(n)
	}
}

// firstByte reports whether this is the first payload chunk of the
// flow (false for a nil flow, so no event fires).
func (f *flow) firstByte() bool {
	return f != nil && f.first.CompareAndSwap(false, true)
}

// acquire blocks until the flow holds fair-share credit for n bytes.
// Free for a nil flow or an unscheduled depot, so bare pumps and
// depots without a scheduler pay nothing.
func (f *flow) acquire(n int) {
	if f != nil {
		f.fs.Acquire(n)
	}
}

// pump moves the session payload from src to dst through a bounded
// pipeline of PipelineBytes: a reader goroutine fills chunks into a
// channel whose total capacity is the pipeline size, and the writer
// drains it. When the downstream sublink is slower, the channel fills
// and the reader — and therefore the upstream TCP connection — blocks:
// the depot back-pressure of Figure 5.
//
// Chunk buffers come from the shared bufpool: a chunk lives from its
// read until the downstream write completes (possibly queued for the
// whole pipeline depth), and is then recycled, so a pump's allocation
// cost is its steady-state pipeline working set rather than one buffer
// per 32 KiB forwarded — which matters ×N when a striped session runs
// N pumps through one depot.
//
// The pump is also where the logistical effect is observed: every chunk
// moved is recorded as it moves (so partial transfers never lose bytes
// on an error path), pipeline occupancy is kept as a live gauge that
// rises exactly when the downstream sublink back-pressures, and the
// time the reader spends blocked on a full pipeline is accounted as
// stall time. f may be nil (bare pumps in tests): accounting still
// lands in the server's counters, only per-session reporting is
// skipped.
func (s *Server) pump(dst io.Writer, src io.Reader, f *flow) (int64, error) {
	depth := s.cfg.PipelineBytes / chunkSize
	if depth < 1 {
		depth = 1
	}
	type item struct {
		data []byte
		buf  *[]byte // pool token; nil for the terminal error item
		err  error
	}
	ch := make(chan item, depth)
	enqueue := func(it item) {
		n := int64(len(it.data))
		s.met.occupancy.Add(n)
		f.addQueued(n)
		select {
		case ch <- it:
		default:
			// Pipeline full: the upstream sublink is now blocked on
			// this depot — Figure 5 back-pressure, measured.
			t0 := time.Now()
			ch <- it
			s.met.stallNanos.add(time.Since(t0).Nanoseconds())
		}
	}
	dequeued := func(it item) {
		n := int64(len(it.data))
		s.met.occupancy.Add(-n)
		f.addQueued(-n)
		bufpool.Put(it.buf)
	}
	go func() {
		for {
			bp := bufpool.Get()
			buf := *bp
			n, err := src.Read(buf)
			if n > 0 {
				enqueue(item{data: buf[:n], buf: bp})
			} else {
				bufpool.Put(bp)
			}
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				enqueue(item{err: err})
				close(ch)
				return
			}
		}
	}()

	start := time.Now()
	var written int64
	finish := func(err error) (int64, error) {
		f.emit(obs.KindLastByte, obs.Event{Bytes: written})
		if elapsed := time.Since(start).Seconds(); elapsed > 0 && written > 0 {
			s.met.throughput.Observe(float64(written) * 8 / 1e6 / elapsed)
		}
		return written, err
	}
	for it := range ch {
		if it.data == nil {
			if it.err != nil {
				return finish(fmt.Errorf("pump read: %w", it.err))
			}
			break
		}
		if f.firstByte() {
			f.emit(obs.KindFirstByte, obs.Event{})
		}
		// Fair sharing gates the write, not the read: upstream bytes
		// still land in the pipeline at full speed, but the contended
		// resource — the downstream sublink — is granted by weight.
		f.acquire(len(it.data))
		t0 := time.Now()
		n, err := dst.Write(it.data)
		s.met.chunkWrite.Observe(time.Since(t0).Seconds())
		dequeued(it)
		// Record bytes as they move, not when the pump completes:
		// partial transfers keep their accounting on every error path.
		written += int64(n)
		s.met.bytesForwarded.add(int64(n))
		f.addBytes(int64(n))
		if err != nil {
			// Drain the reader goroutine so it can exit, releasing the
			// occupancy the queued chunks still hold.
			go func() {
				for it := range ch {
					dequeued(it)
				}
			}()
			return finish(fmt.Errorf("pump write: %w", err))
		}
	}
	return finish(nil)
}

// handleMulticast implements the synchronous application-layer
// multicast staging option: this depot locates itself in the carried
// tree, opens a leg to each child carrying that child's subtree, and
// duplicates the payload to all of them — or, at a leaf, to local
// delivery.
func (s *Server) handleMulticast(sess *lsl.Session, f *flow) error {
	defer sess.Close()
	opt, found := sess.Header.Option(wire.OptMulticastTree)
	if !found {
		return fmt.Errorf("multicast session %s: %w", sess.Header.Session, wire.ErrOptionMissing)
	}
	tree, err := wire.ParseMulticastTree(opt)
	if err != nil {
		return err
	}
	node := findNode(tree, s.cfg.Self)
	if node == nil {
		return fmt.Errorf("multicast session %s: depot %s not in tree", sess.Header.Session, s.cfg.Self)
	}
	defer s.track(f, sess.Header, "multicast", wire.Endpoint{})()

	var legs []*leg
	var writers []io.Writer
	all := &leg{end: func() (err error) {
		for _, l := range legs {
			if eerr := l.end(); err == nil {
				err = eerr
			}
		}
		return err
	}}
	for _, child := range node.Children {
		childOpt, err := wire.MulticastTreeOption(child)
		var l *leg
		if err == nil {
			l, err = s.onward(sess, f, legSpec{typ: wire.TypeMulticast, to: child.Addr, set: []wire.Option{childOpt}})
		}
		if err != nil {
			all.end()
			return err
		}
		legs, writers = append(legs, l), append(writers, l)
	}
	if len(node.Children) == 0 {
		// The pump already records this flow's progress; give delivery
		// an entry-less clone so session-table bytes aren't doubled.
		fd := &flow{srv: s, id: f.id, trace: f.trace, hop: f.hopIndex()}
		l := s.localLeg(sess.Header, fd, func() {})
		legs, writers = append(legs, l), append(writers, l)
	}
	return s.relay(sess, f, all, io.MultiWriter(writers...), s.checkedSource(sess), nil)
}

// hopIndex returns the flow's hop position (0 for a nil flow).
func (f *flow) hopIndex() int {
	if f == nil {
		return 0
	}
	return f.hop
}

// findNode locates the tree node whose address matches self.
func findNode(n *wire.TreeNode, self wire.Endpoint) *wire.TreeNode {
	if n.Addr == self {
		return n
	}
	for _, c := range n.Children {
		if found := findNode(c, self); found != nil {
			return found
		}
	}
	return nil
}
