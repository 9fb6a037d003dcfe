package main

import (
	"fmt"
	"time"

	"github.com/netlogistics/lsl/internal/core"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/simtime"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/wire"
)

// coreTimeScale compresses the emulated network so far that its links
// (20 Mbit/s and 5 ms one way emulated, 250 GB/s and 50 ns real) outrun
// the host: core-modes is bound by CPU, not by scaled sleeps. A segment
// is nearly always ready when its reader looks, so the run does not stall
// on timer waits the runtime may round up to a millisecond.
const coreTimeScale = 0.00001

// coreModes are the four transfer engines core-modes cycles through.
var coreModes = []string{"reliable", "striped", "multipath", "cached"}

// coreHosts are the topology's host names.
var coreHosts = []string{"src", "depot-a", "depot-b", "dst"}

// coreTopology has the shape of lsl-exp multipath: two edge-disjoint
// depot routes between src and dst and a thin direct link.
func coreTopology() (*topo.Topology, error) {
	const (
		mbit = 1e6 / 8
		buf  = int64(8 << 20)
	)
	hosts := []topo.Host{
		{Name: "src", Site: "src", SndBuf: buf, RcvBuf: buf},
		{Name: "depot-a", Site: "a", SndBuf: buf, RcvBuf: buf, Depot: true, ForwardRate: 1e9, PipelineBytes: 1 << 20},
		{Name: "depot-b", Site: "b", SndBuf: buf, RcvBuf: buf, Depot: true, ForwardRate: 1e9, PipelineBytes: 1 << 20},
		{Name: "dst", Site: "dst", SndBuf: buf, RcvBuf: buf},
	}
	tp, err := topo.New("core-modes", hosts)
	if err != nil {
		return nil, err
	}
	set := func(a, b string, capMbit float64) {
		tp.SetLink(tp.MustHost(a), tp.MustHost(b), topo.Link{RTT: simtime.Milliseconds(10), Capacity: capMbit * mbit})
	}
	set("src", "depot-a", 20)
	set("depot-a", "dst", 20)
	set("src", "depot-b", 20)
	set("depot-b", "dst", 20)
	set("src", "dst", 1)
	return tp, nil
}

// coreRig drives core.System with one client cycling the four engines.
type coreRig struct {
	sys       *core.System
	reg       *obs.Registry
	size      int64
	cachedIDs []wire.SessionID // TransferCached repeats these objects
	n         int              // transfers made so far
}

// buildCoreModes starts the emulated deployment with integrity and
// depot caches on, and warms it with one cycle of the four engines.
func buildCoreModes(cfg config) (rig, *tally, error) {
	size, cacheBytes := int64(8<<20), int64(48<<20)
	if cfg.tiny {
		size, cacheBytes = 256<<10, 4<<20
	}
	tp, err := coreTopology()
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	sys, err := core.NewSystem(tp, core.Config{
		TimeScale:  coreTimeScale,
		Seed:       cfg.seed,
		Epsilon:    -1, // paper-default edge equivalence, as lsl-exp multipath
		Metrics:    reg,
		Integrity:  true,
		CacheBytes: cacheBytes,
	})
	if err != nil {
		return nil, nil, err
	}
	c := &coreRig{sys: sys, reg: reg, size: size,
		cachedIDs: []wire.SessionID{mkID(cfg.seed, 4, 0), mkID(cfg.seed, 4, 1)}}
	return c, c.loop(time.Time{}, len(coreModes), nil), nil
}

func (c *coreRig) drive(stop time.Time, tr *tracer) *tally { return c.loop(stop, 0, tr) }

// loop makes transfers until stop (when set) or limit (when positive).
// core verifies each one at its sink (pattern and whole-object digest)
// and returns an error for any it could not deliver intact.
func (c *coreRig) loop(stop time.Time, limit int, tr *tracer) *tally {
	t := newTally()
	mismatches := c.reg.Counter(core.MetricDigestMismatches).Value()
	pol := core.DefaultRecovery()
	for k := 0; (limit <= 0 || k < limit) && (stop.IsZero() || time.Now().Before(stop)); k++ {
		mode := coreModes[c.n%len(coreModes)]
		root := tr.id()
		start := time.Now()
		var (
			res core.TransferResult
			err error
		)
		switch mode {
		case "reliable":
			res, err = c.sys.TransferReliable("src", "dst", c.size, pol)
		case "striped":
			res, err = c.sys.TransferStriped("src", "dst", c.size, 4, pol)
		case "multipath":
			var mr core.MultipathResult
			mr, err = c.sys.TransferMultipath("src", "dst", c.size, 2, pol)
			res = mr.TransferResult
		case "cached":
			id := c.cachedIDs[(c.n/len(coreModes))%len(c.cachedIDs)]
			var cr core.CachedResult
			cr, err = c.sys.TransferCached("src", "dst", id, c.size, pol)
			res = cr.TransferResult
			if err == nil {
				t.cached += c.size
				t.cacheBytes += cr.CachedBytes
			}
		}
		c.n++
		end := time.Now()
		tr.record("core."+mode, 0, root, root, 0, start, end)
		tr.record("xfer", root, 0, root, 0, start, end)
		if err == nil && res.Bytes != c.size {
			err = fmt.Errorf("%w: %s delivered %d of %d bytes", errUnverified, mode, res.Bytes, c.size)
		}
		t.record(mode, c.size, start, end, err)
	}
	// A digest mismatch core recovered from by re-sending was still a
	// wrong output at the sink.
	if d := c.reg.Counter(core.MetricDigestMismatches).Value() - mismatches; d > 0 {
		t.unverified += d
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%w: %d whole-object digest mismatch(es) at the sink", errUnverified, d)
		}
	}
	return t
}

func (c *coreRig) layers() layerSnap {
	var l layerSnap
	registryLayers(c.reg, &l)
	s := c.reg.Snapshot().Counters
	l.refused = s[depot.MetricSessionsRefused]
	l.errors = s[depot.MetricSessionErrors]
	l.checksumErrs = s[depot.MetricChecksumErrors]
	l.stolen = s[core.MetricMultipathRangesStolen]
	l.dupAcks = s[core.MetricMultipathDuplicateAcks]
	l.retries = s[core.MetricRetryAttempts] + s[core.MetricStripeRetries]
	l.multipathXfers = s[core.MetricMultipathTransfers]
	for _, h := range coreHosts {
		if cc := c.sys.DepotCache(h); cc != nil {
			cs := cc.Stats()
			l.cacheEvictions += cs.Evictions
			l.cacheMem += cs.MemBytes
			l.cacheDisk += cs.DiskBytes
		}
	}
	return l
}

func (c *coreRig) close() error {
	c.sys.Close()
	return nil
}
