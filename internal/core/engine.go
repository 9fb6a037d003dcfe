package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

// The range-transfer engine. Every data transfer core makes — plain,
// reliable, striped, multipath and cached — pushes the byte ranges of
// one object through one or more depot routes, and the modes differ
// only in their inputs: how the object is split, how many routes and
// how many workers per route, and how a session is opened. Workers
// claim ranges off a shared queue, open a session at the range's ack
// frontier, stream the pattern and wait for the sink's report; retry,
// resume and failover are decided in one loop (deliver) for all of
// them. The sink feeds each report straight into the queues watching
// the session id.

// maxClaims bounds how many routes race one range: the owner plus at
// most one thief. More would burn capacity re-sending the same bytes
// on every route.
const maxClaims = 2

// drainWindow is how long a torn attempt waits for the sink's report of
// in-flight bytes that may still land after the send side failed.
const drainWindow = 500 * time.Millisecond

// xferRange is one contiguous byte range of a transfer's work queue.
// done closes on the first clean report reaching the range end (first
// ack wins); the other fields are guarded by the queue's mutex.
type xferRange struct {
	idx  int
	rng  wire.ByteRange
	done chan struct{}

	acked    int64    // ack frontier: the sink verified [rng.Off, acked)
	claims   []*route // routes currently sending this range
	finished bool
}

// reportWait is one attempt's claim on the sink report of its own
// session, the one that began at absolute offset from.
type reportWait struct {
	from int64
	ch   chan deliverResult // capacity 1
}

// rangeQueue is the shared work queue of one transfer. Pending ranges
// are claimed in object order; once none is left, an idle route steals
// the in-flight range with the most bytes left from another route — a
// slow or stalled route never holds the tail. A range in flight on the
// claiming route is never stolen: both copies would share one
// bottleneck, so single-route transfers are steal-free by construction.
type rangeQueue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	ranges    []*xferRange
	pending   []int
	remaining int
	dead      map[*route]bool // routes whose worker exhausted a range
	waits     []*reportWait
	fatal     error // set once; stops every worker
	stolen    int
	dups      int

	ids []wire.SessionID // ids the queue is watched under, guarded by System.mu
}

func newRangeQueue(ranges []wire.ByteRange) *rangeQueue {
	q := &rangeQueue{dead: make(map[*route]bool)}
	q.cond = sync.NewCond(&q.mu)
	for _, r := range ranges {
		q.add(r, true)
	}
	return q
}

// add appends a range to the queue: pending, or parked until a release
// requeues it (a cached transfer parks the range its holder serves).
func (q *rangeQueue) add(rng wire.ByteRange, pending bool) *xferRange {
	q.mu.Lock()
	defer q.mu.Unlock()
	r := &xferRange{idx: len(q.ranges), rng: rng, acked: rng.Off, done: make(chan struct{})}
	q.ranges = append(q.ranges, r)
	q.remaining++
	if pending {
		q.pending = append(q.pending, r.idx)
	}
	return r
}

// claim returns the next range for a worker on rt to drive: a pending
// range when one exists, otherwise a steal. It blocks while every
// unfinished range is in flight and unstealable — a dying worker may
// still hand its range back — and returns nil once nothing is left for
// rt: the object is delivered, the transfer aborted, rt is dead, or the
// only unfinished ranges are parked.
func (q *rangeQueue) claim(rt *route) *xferRange {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.remaining > 0 && q.fatal == nil && !q.dead[rt] {
		if len(q.pending) > 0 {
			r := q.ranges[q.pending[0]]
			q.pending = q.pending[1:]
			r.claims = append(r.claims, rt)
			return r
		}
		var best *xferRange
		inflight := false
		for _, r := range q.ranges {
			if r.finished || len(r.claims) == 0 {
				continue
			}
			inflight = true
			if len(r.claims) >= maxClaims || slices.Contains(r.claims, rt) {
				continue
			}
			if best == nil || r.rng.End()-r.acked > best.rng.End()-best.acked {
				best = r
			}
		}
		if best != nil {
			best.claims = append(best.claims, rt)
			q.stolen++
			return best
		}
		if !inflight {
			return nil
		}
		q.cond.Wait()
	}
	return nil
}

// release returns rt's claim on r. An unfinished range with no
// claimants left goes back on the pending queue so a surviving route
// picks it up — how a dead route's work drains to its siblings. A nil
// rt just requeues a parked range.
func (q *rangeQueue) release(r *xferRange, rt *route) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if i := slices.Index(r.claims, rt); i >= 0 {
		r.claims = slices.Delete(r.claims, i, i+1)
	}
	q.requeue(r)
}

// requeue puts r back on the pending queue unless it is finished,
// claimed or already pending. q.mu must be held.
func (q *rangeQueue) requeue(r *xferRange) {
	if !r.finished && len(r.claims) == 0 && !slices.Contains(q.pending, r.idx) {
		q.pending = append(q.pending, r.idx)
	}
	q.cond.Broadcast()
}

// report folds one sink delivery report into the queue. It goes to the
// waiting attempt whose session began at the report's offset, and it
// advances the covering range's ack frontier; a clean report reaching
// the range end finishes it — exactly once, a later duplicate from a
// stealing sibling is counted and dropped. A report with an error never
// acks the range's last byte, so the frontier reaches the end only
// when the range is finished.
func (q *rangeQueue) report(res deliverResult) {
	q.mu.Lock()
	defer q.mu.Unlock()
	defer q.cond.Broadcast()
	if i := slices.IndexFunc(q.waits, func(w *reportWait) bool { return w.from == res.offset }); i >= 0 {
		q.waits[i].ch <- res
		q.waits = slices.Delete(q.waits, i, i+1)
	}
	i := slices.IndexFunc(q.ranges, func(r *xferRange) bool {
		return res.offset >= r.rng.Off && res.offset < r.rng.End()
	})
	if i < 0 {
		return
	}
	r := q.ranges[i]
	end := min(res.offset+res.bytes, r.rng.End())
	switch {
	case res.err != nil:
		end = min(end, r.rng.End()-1)
	case end < r.rng.End():
	case r.finished:
		q.dups++
	default:
		r.finished = true
		q.remaining--
		close(r.done)
	}
	r.acked = max(r.acked, end)
}

// expect registers an attempt's wait for the report of its session
// beginning at from; forget drops it.
func (q *rangeQueue) expect(from int64) *reportWait {
	w := &reportWait{from: from, ch: make(chan deliverResult, 1)}
	q.mu.Lock()
	q.waits = append(q.waits, w)
	q.mu.Unlock()
	return w
}

func (q *rangeQueue) forget(w *reportWait) {
	q.mu.Lock()
	q.waits = slices.DeleteFunc(q.waits, func(x *reportWait) bool { return x == w })
	q.mu.Unlock()
}

// restart sends every range's frontier back to its start. A failed
// whole-object digest means some acked byte is wrong even though every
// chunk checksum passed, and nothing says which one.
func (q *rangeQueue) restart() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, r := range q.ranges {
		r.acked = r.rng.Off
		if r.finished {
			r.finished = false
			r.done = make(chan struct{})
			q.remaining++
		}
		q.requeue(r)
	}
}

// frontier returns r's ack frontier and the channel its finish closes.
func (q *rangeQueue) frontier(r *xferRange) (int64, <-chan struct{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return r.acked, r.done
}

// state returns r's ack frontier and whether it is finished.
func (q *rangeQueue) state(r *xferRange) (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return r.acked, r.finished
}

// left reports how many ranges are not yet delivered.
func (q *rangeQueue) left() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.remaining
}

// ackedBytes sums the verified bytes across every range.
func (q *rangeQueue) ackedBytes() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	var n int64
	for _, r := range q.ranges {
		n += r.acked - r.rng.Off
	}
	return n
}

// kill marks rt dead: no worker on it claims another range.
func (q *rangeQueue) kill(rt *route) {
	q.mu.Lock()
	q.dead[rt] = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// abort records the transfer's first fatal error and stops every worker.
func (q *rangeQueue) abort(err error) {
	q.mu.Lock()
	if q.fatal == nil {
		q.fatal = err
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *rangeQueue) aborted() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.fatal
}

// route is one depot path a transfer's workers send along. A failover
// decided by one worker advances the generation and every sibling's
// next attempt follows the new path; the generation guard makes
// concurrent triggers from several starved workers cost a single
// probe-and-replan.
type route struct {
	mu   sync.Mutex
	path []int
	gen  int
}

// get returns the current path and its generation.
func (p *route) get() ([]int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.path, p.gen
}

// current returns the path the transfer ended on.
func (p *route) current() []int {
	path, _ := p.get()
	return path
}

// failover reroutes via fn unless a sibling already rerouted past gen.
func (p *route) failover(gen int, fn func(cur []int) []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if gen != p.gen {
		return
	}
	p.path = fn(p.path)
	p.gen++
}

// opener opens one attempt's session along path (route index w) for
// range r, resuming at absolute offset from. It is the only per-mode
// piece of the engine. Besides the session it returns the tags the
// attempt's hop-0 events carry — the first hop as Peer, and a stripe
// or path index — even when the open fails.
type opener func(d lsl.Dialer, path []int, w int, r *xferRange, from int64) (*lsl.Session, obs.Event, error)

// send is one logical transfer as the engine's input.
type send struct {
	src, dst int
	id       wire.SessionID // shared by every session; zero when each attempt opens its own
	tid      wire.TraceID
	q        *rangeQueue
	routes   []*route
	workers  int // per route
	pol      RecoveryPolicy
	retries  string // the metric one retry increments
	open     opener
}

// run drives the transfer until its queue has nothing left to claim and
// returns nil when every range is delivered. Each route gets j.workers
// workers; a worker that exhausts a range kills its route, and the
// transfer fails only on a fatal error or when ranges are left over
// after every route died.
func (s *System) run(j *send) error {
	defer s.unwatch(j.q)
	errs := make([]error, len(j.routes)*j.workers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.drive(j, i/j.workers)
		}(i)
	}
	wg.Wait()
	if err := j.q.aborted(); err != nil {
		return err
	}
	left := j.q.left()
	if left == 0 {
		return nil
	}
	i := slices.IndexFunc(errs, func(err error) bool { return err != nil })
	if len(j.routes) == 1 && i >= 0 {
		return errs[i]
	}
	if i < 0 {
		return fmt.Errorf("core: %d of %d ranges undelivered", left, len(j.q.ranges))
	}
	return fmt.Errorf("core: %d of %d ranges undelivered after every route died: %w", left, len(j.q.ranges), errs[i])
}

// drive is one worker on route w: it claims ranges until none is left
// for it, and dies — its route with it, the claimed range handed back
// to the queue — when a range exhausts its attempts. A multipath route
// that dies so is counted; one stopped by a fatal abort is not.
func (s *System) drive(j *send, w int) error {
	rt := j.routes[w]
	for {
		r := j.q.claim(rt)
		if r == nil {
			return nil
		}
		err := s.deliver(j, w, r)
		if err == nil {
			j.q.release(r, rt)
			continue
		}
		// The route dies before the range goes back, so no sibling on
		// it claims the range again.
		j.q.kill(rt)
		j.q.release(r, rt)
		if len(j.routes) > 1 && j.q.aborted() == nil {
			s.cfg.Metrics.Counter(MetricMultipathPathFailures).Inc()
			s.emitRecovery(j.id.String(), j.tid, j.src, obs.KindFailover, obs.Event{
				Path:   obs.PathOf(w),
				Detail: fmt.Sprintf("route %d abandoned: %v", w, err),
			})
		}
		return err
	}
}

// deliver drives one claimed range to completion along route w. It is
// the one attempt loop of every transfer mode: each attempt resumes at
// the range's ack frontier; a fatal error aborts the whole transfer, a
// transient one burns an attempt under pol.Retry, a failed whole-object
// digest restarts every range, and FailoverAfter attempts in a row
// without progress reroute the route around its dead relays. It returns
// nil once the range is finished — whether this worker delivered the
// tail or a stealing sibling did.
func (s *System) deliver(j *send, w int, r *xferRange) error {
	reg, q, pol := s.cfg.Metrics, j.q, j.pol
	var (
		lastErr    error
		lastID     string
		tags       obs.Event
		noProgress int
	)
	for attempt := 0; attempt < pol.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := q.aborted(); err != nil {
				return err
			}
			acked, _ := q.state(r)
			reg.Counter(j.retries).Inc()
			s.emitRecovery(lastID, j.tid, j.src, obs.KindRetry, obs.Event{
				Stripe: tags.Stripe,
				Path:   tags.Path,
				Bytes:  acked,
				Detail: fmt.Sprintf("%s: %v", retry.Classify(lastErr), lastErr),
			})
			if err := pol.Retry.Sleep(context.Background(), attempt-1); err != nil {
				break
			}
			if acked, _ := q.state(r); acked > r.rng.Off {
				// Bytes the continuation session does not re-send.
				reg.Counter(MetricResumedBytes).Add(acked - r.rng.Off)
			}
		}
		path, gen := j.routes[w].get()
		var (
			got int64
			err error
		)
		got, lastID, tags, err = s.attempt(j, w, path, r)
		if err == nil {
			return nil
		}
		if retry.IsFatal(err) {
			reg.Counter(MetricRecoveryFatal).Inc()
			err = fmt.Errorf("core: fatal: %w", err)
			q.abort(err)
			return err
		}
		if errors.Is(err, wire.ErrDigest) {
			// The sink's digest state is already gone; start the
			// object over.
			q.restart()
		}
		lastErr = err
		if got > 0 {
			noProgress = 0
		} else {
			noProgress++
		}
		if pol.Failover && noProgress >= pol.FailoverAfter && len(path) > 2 {
			j.routes[w].failover(gen, func(cur []int) []int {
				return s.failoverPath(j.src, j.dst, cur, lastID, j.tid)
			})
			noProgress = 0
		}
	}
	return fmt.Errorf("core: %w after %d attempts: %w", retry.ErrExhausted, pol.Retry.MaxAttempts, lastErr)
}

// attempt runs one session for range r along path: it opens at the
// range's ack frontier, streams the pattern to the range end under one
// write deadline, and waits for the range to finish, for its own
// session's sink report, or for the settle window. A clean write waits
// out the deadline — the report IS the success signal; a torn one
// waits only drainWindow, since only bytes already in flight can still
// land (they count as progress the retry does not re-send). It returns
// how far the frontier advanced, the session id, the event tags, and
// nil exactly when the range is finished.
func (s *System) attempt(j *send, w int, path []int, r *xferRange) (int64, string, obs.Event, error) {
	q, timeout := j.q, j.pol.AttemptTimeout
	from, done := q.frontier(r)
	own := q.expect(from)
	defer q.forget(own)
	// Per-hop connect timeout on the first sublink; depots bound their
	// own onward dials.
	sess, tags, err := j.open(lsl.TimeoutDialer(s.dialerFor(j.src), timeout), path, w, r, from)
	if err != nil {
		return 0, "", tags, err
	}
	id := sess.ID()
	s.watch(id, q)
	emit := func(kind string, e obs.Event) {
		e.Stripe, e.Path = tags.Stripe, tags.Path
		s.emitHop0(id, j.tid, j.src, kind, e)
	}
	emit(obs.KindConnect, obs.Event{Peer: tags.Peer, Bytes: from})

	// A stalled chain must not pin the sender forever: every write this
	// attempt makes races the same deadline.
	deadline := time.Now().Add(timeout)
	_ = sess.SetWriteDeadline(deadline)
	emit(obs.KindFirstByte, obs.Event{})
	_, werr := depot.WritePattern(cutWriter{sessionWriter(sess), done}, id, from, r.rng.End())
	sess.Close()
	if werr == nil {
		emit(obs.KindLastByte, obs.Event{Bytes: r.rng.End() - from})
	}

	settle := time.Until(deadline)
	if werr != nil || settle < drainWindow {
		settle = drainWindow
	}
	timer := time.NewTimer(settle)
	defer timer.Stop()
	var res *deliverResult
	select {
	case <-done:
	case rep := <-own.ch:
		res = &rep
	case <-timer.C:
	}
	acked, finished := q.state(r)
	got := max(acked-from, 0)
	switch {
	case finished && res == nil:
		// Another session finished the range. This one's report marks
		// the end of its bytes at the sink, whose digest state must not
		// outlive the transfer, so wait for it (bounded: the write was
		// cut short).
		select {
		case <-own.ch:
		case <-time.After(drainWindow):
		}
		fallthrough
	case finished:
		return got, id.String(), tags, nil
	case res != nil && res.err != nil:
		err = fmt.Errorf("core: sink: %w", res.err)
	case werr != nil:
		err = fmt.Errorf("core: send: %w", werr)
	case res != nil:
		// The chain tore after every write was buffered: no send error,
		// a clean partial delivery. Retryable by definition.
		err = retry.AsTransient(fmt.Errorf("core: sink acked %d of %d bytes", acked-r.rng.Off, r.rng.Len))
	default:
		err = retry.AsTransient(fmt.Errorf("core: no sink report within %v", settle))
	}
	return got, id.String(), tags, err
}

// errRangeDone cuts a session short once another session finished its
// range.
var errRangeDone = errors.New("core: range delivered by another session")

// cutWriter stops a session's writes once done closes: when a sibling
// finishes the range first, the rest would only be duplicate bytes.
type cutWriter struct {
	io.Writer
	done <-chan struct{}
}

func (w cutWriter) Write(p []byte) (int, error) {
	select {
	case <-w.done:
		return 0, errRangeDone
	default:
		return w.Writer.Write(p)
	}
}

// relays returns the depot endpoints of a host path: every host
// between the source and the destination.
func (s *System) relays(path []int) []wire.Endpoint {
	out := make([]wire.Endpoint, 0, len(path)-2)
	for _, h := range path[1 : len(path)-1] {
		out = append(out, s.endpoints[h])
	}
	return out
}

// chainOpener opens data sessions along the host path carrying opts —
// the opener of plain, reliable and cached transfers. A non-zero id
// pins every attempt to one session identity (the sink keys its running
// digest by it); a zero id opens each attempt as a new session.
func (s *System) chainOpener(id wire.SessionID, opts []wire.Option) opener {
	return func(d lsl.Dialer, path []int, _ int, _ *xferRange, from int64) (*lsl.Session, obs.Event, error) {
		src, dst := s.endpoints[path[0]], s.endpoints[path[len(path)-1]]
		tags := obs.Event{Peer: s.endpoints[path[1]].String()}
		if id == (wire.SessionID{}) {
			sess, err := lsl.OpenAt(d, src, dst, s.relays(path), from, opts...)
			return sess, tags, err
		}
		sess, err := lsl.OpenAtID(d, id, src, dst, s.relays(path), from, opts...)
		return sess, tags, err
	}
}
