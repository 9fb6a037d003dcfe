package core

import (
	"crypto/sha256"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// TestMultipathRangesSizing: the work queue a multipath transfer builds
// holds several ranges per route, shrunk toward 64 KiB for small
// objects, but never fewer ranges than routes nor more than bytes.
func TestMultipathRangesSizing(t *testing.T) {
	cases := []struct {
		size int64
		k    int
		want int
	}{
		// Plenty of room: four ranges per route.
		{size: 8 << 20, k: 2, want: 8},
		{size: 8 << 20, k: 3, want: 12},
		// Small object: ranges shrink toward the 64 KiB floor...
		{size: 256 << 10, k: 2, want: 4},
		// ...but never fewer ranges than routes,
		{size: 100 << 10, k: 3, want: 3},
		// and never more ranges than bytes.
		{size: 2, k: 3, want: 2},
	}
	for _, tc := range cases {
		q := newRangeQueue(lsl.SplitRanges(tc.size, tc.k, true))
		if len(q.ranges) != tc.want || q.remaining != tc.want || len(q.pending) != tc.want {
			t.Fatalf("multipath queue for (%d, %d): %d ranges (%d remaining, %d pending), want %d",
				tc.size, tc.k, len(q.ranges), q.remaining, len(q.pending), tc.want)
		}
		var off int64
		for i, r := range q.ranges {
			if r.idx != i || r.rng.Off != off || r.rng.Len <= 0 || r.acked != r.rng.Off {
				t.Fatalf("range %d = %+v, want contiguous from %d", i, r.rng, off)
			}
			off = r.rng.End()
		}
		if off != tc.size {
			t.Fatalf("ranges cover %d of %d bytes", off, tc.size)
		}
	}
}

func TestMPQueueClaimOrderAndSteal(t *testing.T) {
	q := newRangeQueue(lsl.SplitRanges(400, 4, false))
	routes := []*route{{}, {}, {}, {}}

	// Pending ranges come out in object order.
	a, b := q.claim(routes[0]), q.claim(routes[1])
	if a.idx != 0 || b.idx != 1 {
		t.Fatalf("claim order = %d, %d, want 0, 1", a.idx, b.idx)
	}
	c, d := q.claim(routes[2]), q.claim(routes[3])
	if c.idx != 2 || d.idx != 3 {
		t.Fatalf("claim order = %d, %d, want 2, 3", c.idx, d.idx)
	}

	// Advance two ranges unevenly, finish the other two: the next
	// claim is a steal and must pick the range with most bytes left.
	q.report(deliverResult{offset: a.rng.Off, bytes: 80})        // a: 20 left
	q.report(deliverResult{offset: b.rng.Off, bytes: 10})        // b: 90 left
	q.report(deliverResult{offset: c.rng.Off, bytes: c.rng.Len}) // finished
	q.report(deliverResult{offset: d.rng.Off, bytes: d.rng.Len}) // finished
	stolen := q.claim(routes[2])
	if stolen != b {
		t.Fatalf("stole range %d, want %d (most bytes left)", stolen.idx, b.idx)
	}
	if q.stolen != 1 {
		t.Fatalf("stolen counter = %d, want 1", q.stolen)
	}
	// b now has maxClaims claimants; only a is stealable.
	if next := q.claim(routes[3]); next != a {
		t.Fatalf("second steal got range %d, want %d", next.idx, a.idx)
	}

	// First full ack wins; the duplicate is counted, not double-closed.
	q.report(deliverResult{offset: b.rng.Off, bytes: b.rng.Len})
	select {
	case <-b.done:
	default:
		t.Fatal("done channel not closed after full ack")
	}
	q.report(deliverResult{offset: b.rng.Off, bytes: b.rng.Len})
	if q.dups != 1 {
		t.Fatalf("duplicate acks = %d, want 1", q.dups)
	}

	// Finish the last range; claim must then report the queue drained.
	q.report(deliverResult{offset: a.rng.Off, bytes: a.rng.Len})
	if got := q.claim(routes[0]); got != nil {
		t.Fatalf("claim on drained queue = %+v, want nil", got)
	}
	if q.left() != 0 {
		t.Fatalf("left = %d, want 0", q.left())
	}
}

// TestMPQueueStealsOnlyAcrossRoutes: a range in flight on the claiming
// route is never stolen back onto it — both copies would share one
// bottleneck — so a single-route queue with nothing pending hands out
// nothing until the object is delivered.
func TestMPQueueStealsOnlyAcrossRoutes(t *testing.T) {
	q := newRangeQueue(lsl.SplitRanges(200, 2, false))
	rt := &route{}
	a, b := q.claim(rt), q.claim(rt)
	got := make(chan *xferRange)
	go func() { got <- q.claim(rt) }()
	q.report(deliverResult{offset: a.rng.Off, bytes: a.rng.Len})
	q.report(deliverResult{offset: b.rng.Off, bytes: b.rng.Len})
	if r := <-got; r != nil {
		t.Fatalf("same-route claim = range %d, want nil once delivered", r.idx)
	}
	if q.stolen != 0 {
		t.Fatalf("stolen = %d, want 0", q.stolen)
	}
}

// TestMPQueueRestartRequeuesEverything: a failed whole-object digest
// sends every range back to its start — finished ones reopen with a
// fresh done channel and return to the pending queue, claimed ones
// stay with their claimant.
func TestMPQueueRestartRequeuesEverything(t *testing.T) {
	q := newRangeQueue(lsl.SplitRanges(300, 3, false))
	rt := &route{}
	a, b := q.claim(rt), q.claim(rt)
	q.report(deliverResult{offset: a.rng.Off, bytes: a.rng.Len})
	q.release(a, rt)
	q.report(deliverResult{offset: b.rng.Off, bytes: 40})
	q.restart()
	if q.left() != 3 {
		t.Fatalf("left = %d after restart, want 3", q.left())
	}
	for _, r := range []*xferRange{a, b} {
		if acked, finished := q.state(r); acked != r.rng.Off || finished {
			t.Fatalf("range %d state = %d, %v, want %d, unfinished", r.idx, acked, finished, r.rng.Off)
		}
	}
	select {
	case <-a.done:
		t.Fatal("restarted range kept its closed done channel")
	default:
	}
	// Still pending: the never-claimed range, then the reopened one; b
	// stays with its claimant.
	if c, d := q.claim(rt), q.claim(rt); c.idx != 2 || d != a {
		t.Fatalf("claims after restart = %d, %d, want 2, %d", c.idx, d.idx, a.idx)
	}
}

func TestMPQueueReleaseRequeuesUnfinished(t *testing.T) {
	q := newRangeQueue(lsl.SplitRanges(200, 2, false))
	ra, rb := &route{}, &route{}
	a := q.claim(ra)
	b := q.claim(rb)

	// A sink error advances the frontier but does not finish the range.
	q.report(deliverResult{offset: a.rng.Off, bytes: 30, err: errors.New("torn")})
	if acked, finished := q.state(a); acked != a.rng.Off+30 || finished {
		t.Fatalf("state = %d, %v, want %d, unfinished", acked, finished, a.rng.Off+30)
	}

	// Releasing the only claim on an unfinished range re-queues it: the
	// next claim is NOT a steal — it resumes the orphaned range.
	q.release(a, ra)
	q.report(deliverResult{offset: b.rng.Off, bytes: b.rng.Len})
	got := q.claim(rb)
	if got != a {
		t.Fatalf("claim after release = %d, want re-queued %d", got.idx, a.idx)
	}
	if q.stolen != 0 {
		t.Fatalf("stolen = %d, want 0 (re-queue is not a steal)", q.stolen)
	}
}

func TestDigestAbsorbOutOfOrder(t *testing.T) {
	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var want wire.ContentDigest
	want.Size = int64(len(payload))
	sum := sha256.Sum256(payload)
	want.Sum = sum

	// Segments delivered out of object order, with an overlap (a stolen
	// range delivered twice), must still stitch to the sender's digest.
	tr := &digestTracker{}
	tr.open(id)
	tr.absorbOutOfOrder(id, 600, payload[600:])
	tr.absorbOutOfOrder(id, 250, payload[250:600])
	tr.absorbOutOfOrder(id, 0, payload[:250])
	tr.absorbOutOfOrder(id, 250, payload[250:600]) // duplicate: skipped
	done, derr := tr.finalize(id, want)
	if !done || derr != nil {
		t.Fatalf("finalize = (%v, %v), want (true, nil)", done, derr)
	}

	// An out-of-order mismatch is a true mismatch, not a false pass.
	tr = &digestTracker{}
	tr.open(id)
	bad := append([]byte(nil), payload...)
	bad[700] ^= 1
	tr.absorbOutOfOrder(id, 500, bad[500:])
	tr.absorbOutOfOrder(id, 0, bad[:500])
	done, derr = tr.finalize(id, want)
	if !done || !errors.Is(derr, wire.ErrDigest) {
		t.Fatalf("finalize on corrupt bytes = (%v, %v), want mismatch", done, derr)
	}

	// Outrunning the pending cap degrades to unchecked (broken), never
	// a false mismatch.
	tr = &digestTracker{}
	tr.open(id)
	huge := make([]byte, 1<<20)
	for off := int64(1); off <= maxDigestPending+1; off += int64(len(huge)) {
		tr.absorbOutOfOrder(id, off, huge)
	}
	tr.mu.Lock()
	broken := tr.m[id].broken
	pending := tr.m[id].pending
	tr.mu.Unlock()
	if !broken || pending != nil {
		t.Fatalf("cap breach: broken=%v pending=%d segments, want broken with buffer dropped", broken, len(pending))
	}
	done, derr = tr.finalize(id, want)
	if done || derr != nil {
		t.Fatalf("finalize on broken state = (%v, %v), want (false, nil)", done, derr)
	}
}

// TestMultipathTransferDelivers fans one transfer across the two
// disjoint chainTopology routes and asserts byte-exact delivery, both
// routes actually carrying traffic (per-path hop-0 trace events), and
// the end-to-end digest stitched across the routes at the sink.
func TestMultipathTransferDelivers(t *testing.T) {
	reg := obs.NewRegistry()
	sys, mem := integritySystem(t, reg)

	const size, k = 256 << 10, 2
	res, err := sys.TransferMultipath("src", "dst", size, k, RecoveryPolicy{
		Retry: fastPolicy(4), AttemptTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != size {
		t.Fatalf("bytes = %d, want %d", res.Bytes, size)
	}
	if res.Bandwidth <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Routes) != k {
		t.Fatalf("routes = %v, want %d disjoint routes", res.Routes, k)
	}
	assertPath(t, res.Routes[0], "src", "relay-a", "relay-b", "dst")
	assertPath(t, res.Routes[1], "src", "spare", "dst")

	hop0 := map[int]bool{}
	for _, e := range mem.Events() {
		if p, multi := e.PathIndex(); multi && e.Hop == 0 && e.Kind == obs.KindConnect {
			hop0[p] = true
		}
	}
	for w := 0; w < k; w++ {
		if !hop0[w] {
			t.Fatalf("no hop-0 connect event for path %d (saw %v)", w, hop0)
		}
	}

	if v := reg.Counter(MetricMultipathTransfers).Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricMultipathTransfers, v)
	}
	if v := reg.Counter(MetricMultipathDigestVerified).Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricMultipathDigestVerified, v)
	}
	if v := reg.Counter(MetricDigestMismatches).Value(); v != 0 {
		t.Fatalf("%s = %d, want 0", MetricDigestMismatches, v)
	}
	sys.digests.mu.Lock()
	leaked := len(sys.digests.m)
	sys.digests.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d digest states leaked after completion", leaked)
	}
}

// TestMultipathDegradesToSinglePath: k=1 must take the ordinary
// reliable-transfer machinery, and the result still reports one route.
func TestMultipathDegradesToSinglePath(t *testing.T) {
	reg := obs.NewRegistry()
	sys, _ := chainSystem(t, reg, nil)

	const size = 128 << 10
	res, err := sys.TransferMultipath("src", "dst", size, 1, RecoveryPolicy{
		Retry: fastPolicy(3), AttemptTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != size {
		t.Fatalf("bytes = %d, want %d", res.Bytes, size)
	}
	if len(res.Routes) != 1 {
		t.Fatalf("routes = %v, want exactly one", res.Routes)
	}
	assertPath(t, res.Routes[0], "src", "relay-a", "relay-b", "dst")
	if v := reg.Counter(MetricMultipathTransfers).Value(); v != 0 {
		t.Fatalf("%s = %d, want 0 for the single-path degenerate case", MetricMultipathTransfers, v)
	}

	if _, err := sys.TransferMultipath("src", "dst", 0, 2, RecoveryPolicy{}); err == nil {
		t.Fatal("zero-size transfer did not error")
	}
	if _, err := sys.TransferMultipath("src", "dst", size, 0, RecoveryPolicy{}); err == nil {
		t.Fatal("zero path count did not error")
	}
	if _, err := sys.TransferMultipath("nowhere", "dst", size, 2, RecoveryPolicy{}); err == nil {
		t.Fatal("unknown source host did not error")
	}
}

// TestMultipathSurvivesDepotKillMidTransfer is the multipath acceptance
// scenario: mid-transfer, the depot relay-b — on the best disjoint
// route — drops the stream and is then killed outright. The transfer
// must complete through the surviving routes (the dead route's claimed
// ranges drain back to the queue, or its worker reroutes around the
// corpse), byte-exact and with the stitched end-to-end digest intact.
func TestMultipathSurvivesDepotKillMidTransfer(t *testing.T) {
	reg := obs.NewRegistry()
	var (
		sys      *System
		killOnce sync.Once
		killErr  error
		killed   atomic.Bool
	)
	mem := &obs.MemorySink{}
	sinks := obs.MultiSink{mem, sinkFunc(func(e obs.Event) {
		// Route 0's first completed range proves relay-b carried real
		// traffic; killing it there is exactly "mid-transfer" — the
		// route's remaining ranges must reroute or drain to survivors.
		if p, multi := e.PathIndex(); multi && p == 0 && e.Hop == 0 && e.Kind == obs.KindLastByte {
			killOnce.Do(func() {
				killErr = sys.KillDepot("relay-b")
				killed.Store(true)
			})
		}
	})}
	sys, err := NewSystem(chainTopology(t), Config{
		TimeScale: 0.0005,
		Seed:      1,
		Metrics:   reg,
		Trace:     sinks,
		Integrity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	const size, k = 256 << 10, 2
	res, err := sys.TransferMultipath("src", "dst", size, k, RecoveryPolicy{
		Retry: fastPolicy(6), Failover: true, FailoverAfter: 1, AttemptTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if killErr != nil {
		t.Fatalf("KillDepot: %v", killErr)
	}
	if res.Bytes != size {
		t.Fatalf("bytes = %d, want %d", res.Bytes, size)
	}
	if !killed.Load() {
		t.Fatal("relay-b was never killed — the kill trigger did not fire")
	}
	if v := reg.Counter(MetricMultipathDigestVerified).Value(); v != 1 {
		t.Fatalf("%s = %d, want 1 (digest must survive recovery)", MetricMultipathDigestVerified, v)
	}
	// Recovery must be visible in SOME layer's telemetry. The exact
	// shape depends on where the kill landed: the initiator retries or
	// fails the route over (hop-0 retry/failover events), a forwarding
	// depot reroutes around the corpse itself (depot failovers), a
	// surviving route steals the dead route's tail, or the route dies
	// outright and its ranges drain back to the queue.
	var sawRetry, sawFailover bool
	for _, e := range mem.Events() {
		switch e.Kind {
		case obs.KindRetry:
			sawRetry = true
		case obs.KindFailover:
			sawFailover = true
		}
	}
	died := reg.Counter(MetricMultipathPathFailures).Value()
	depotReroutes := reg.Counter(depot.MetricFailovers).Value()
	if !sawRetry && !sawFailover && depotReroutes == 0 && res.Stolen == 0 && died == 0 {
		t.Fatalf("no visible recovery after the kill: retry=%v failover=%v depot failovers=%d stolen=%d path failures=%d",
			sawRetry, sawFailover, depotReroutes, res.Stolen, died)
	}
}

// TestMultipathPathOptionsOnWire asserts the sessions of a multipath
// transfer actually carry the path-set coordinate end to end: every
// depot-observed session of the transfer reports a path index below
// the route count, and the depot's session table exposes it.
func TestMultipathPathOptionsOnWire(t *testing.T) {
	reg := obs.NewRegistry()
	sys, mem := integritySystem(t, reg)

	const size, k = 192 << 10, 2
	if _, err := sys.TransferMultipath("src", "dst", size, k, RecoveryPolicy{
		Retry: fastPolicy(4), AttemptTimeout: 5 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}

	depotPaths := map[int]bool{}
	for _, e := range mem.Events() {
		if p, multi := e.PathIndex(); multi && e.Hop > 0 {
			if p < 0 || p >= k {
				t.Fatalf("depot event carries path %d outside [0,%d): %+v", p, k, e)
			}
			depotPaths[p] = true
		}
	}
	if len(depotPaths) != k {
		t.Fatalf("depot events saw paths %v, want all %d routes", depotPaths, k)
	}
	// The per-route gauge drains to zero once the depots' handlers wind
	// down — which can lag the initiator's completion by a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v := reg.Gauge(depot.MetricActivePaths).Value(); v == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d after completion, want 0",
				depot.MetricActivePaths, reg.Gauge(depot.MetricActivePaths).Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
