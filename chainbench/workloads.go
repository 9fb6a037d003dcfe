package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// object is one pre-generated input: the bytes the source writes and
// the header options it sends them with.
type object struct {
	size   int64 // payload bytes
	wire   []byte
	opts   []wire.Option
	digest wire.ContentDigest
	id     wire.SessionID // fixed session id of a pattern object; zero for framed ones
}

// mkID derives a session or trace id from the seed, a stream number
// and a counter.
func mkID(seed int64, stream uint32, n uint64) wire.SessionID {
	var id wire.SessionID
	binary.BigEndian.PutUint64(id[0:8], uint64(seed))
	binary.BigEndian.PutUint32(id[8:12], stream)
	binary.BigEndian.PutUint32(id[12:16], uint32(n))
	return id
}

func fillRandom(b []byte, rng *rand.Rand) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, rng.Uint64())
		b = b[8:]
	}
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
}

// framedObject is what lsl-xfer -verify-integrity sends: the payload
// in CRC-32C frames, announced with a chunk-checksum option and the
// payload's SHA-256 content digest. raw is scratch of at least size
// bytes.
func framedObject(rng *rand.Rand, size int64, raw []byte, trace wire.TraceID) (*object, error) {
	raw = raw[:size]
	fillRandom(raw, rng)
	d := wire.ContentDigest{Size: size, Sum: sha256.Sum256(raw)}
	frames := (size + wire.MaxFramePayload - 1) / wire.MaxFramePayload
	var out bytes.Buffer
	out.Grow(int(size + frames*wire.FrameHeaderLen))
	if _, err := wire.NewFrameWriter(&out).Write(raw); err != nil {
		return nil, err
	}
	return &object{
		size:   size,
		wire:   out.Bytes(),
		digest: d,
		opts:   []wire.Option{wire.TraceIDOption(trace), wire.ChunkChecksumOption(), wire.ContentDigestOption(d)},
	}, nil
}

// patternObject is a plain session payload: the depot pattern of its
// fixed session id, verified at the sink with depot.VerifyPattern.
func patternObject(id wire.SessionID, size int64, trace wire.TraceID) *object {
	b := make([]byte, size)
	depot.FillPattern(b, id, 0)
	return &object{size: size, wire: b, id: id, opts: []wire.Option{wire.TraceIDOption(trace)}}
}

// chainRig runs closed-loop clients, one per object pool, that each
// push their pool round-robin through every relay to the sink.
type chainRig struct {
	*tcpRig
	hops  []wire.Endpoint // source route
	pools [][]*object     // one per client
	next  []int           // per-client cursor into its pool
}

// buildChainBulk is source → 3 depots → sink, 1 client, 64 MiB framed
// and digested objects.
func buildChainBulk(cfg config) (rig, *tally, error) {
	size, count := int64(64<<20), 2
	if cfg.tiny {
		size = 1 << 20
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 1))
	raw := make([]byte, size)
	pool := make([]*object, count)
	for i := range pool {
		obj, err := framedObject(rng, size, raw, wire.TraceID(mkID(cfg.seed, 1, uint64(i))))
		if err != nil {
			return nil, nil, err
		}
		pool[i] = obj
	}
	return startChain(cfg, [][]*object{pool}, 1)
}

// buildChainSmall is the same chain with 2 clients sending plain
// sessions of 1–64 KiB. Sizes are log-uniform and drawn from the seed,
// one per equal-probability stratum and then shuffled, so every seed
// sends the same mix of sizes in its own order.
func buildChainSmall(cfg config) (rig, *tally, error) {
	const clients = 2
	perClient, warm := 512, 100
	if cfg.tiny {
		perClient, warm = 16, 4
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 2))
	lo, hi := math.Log(1<<10), math.Log(64<<10)
	pools := make([][]*object, clients)
	for c := range pools {
		sizes := make([]int64, perClient)
		for k := range sizes {
			u := (float64(k) + rng.Float64()) / float64(perClient)
			sizes[k] = int64(math.Round(math.Exp(lo + u*(hi-lo))))
		}
		rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		for k, size := range sizes {
			id := mkID(cfg.seed, uint32(c+1), uint64(k))
			pools[c] = append(pools[c], patternObject(id, size, wire.TraceID(mkID(cfg.seed, 0x100+uint32(c), uint64(k)))))
		}
	}
	return startChain(cfg, pools, warm)
}

// startChain builds the 3-relay chain and warms it with warm transfers
// per client.
func startChain(cfg config, pools [][]*object, warm int) (rig, *tally, error) {
	r, err := newTCPRig(obs.NewRegistry(), cfg.seed, 3, nil)
	if err != nil {
		return nil, nil, err
	}
	c := &chainRig{tcpRig: r, hops: r.route(), pools: pools, next: make([]int, len(pools))}
	return c, c.loop(time.Time{}, warm, nil), nil
}

func (c *chainRig) drive(stop time.Time, tr *tracer) *tally { return c.loop(stop, 0, tr) }

// loop runs every client until stop (when set) or until each has made
// limit transfers (when positive).
func (c *chainRig) loop(stop time.Time, limit int, tr *tracer) *tally {
	c.setTracer(tr)
	defer c.setTracer(nil)
	strays := c.strays.Load()
	total := runClients(len(c.pools), func(i int, t *tally) {
		pool := c.pools[i]
		for k := 0; (limit <= 0 || k < limit) && (stop.IsZero() || time.Now().Before(stop)); k++ {
			obj := pool[c.next[i]%len(pool)]
			c.next[i]++
			id := obj.id
			if id == (wire.SessionID{}) {
				id = c.sessionID()
			}
			root := tr.id()
			start := time.Now()
			err := c.push(id, obj, c.hops, tr, root, root, start)
			end := time.Now()
			tr.record("xfer", root, 0, root, 0, start, end)
			t.record("", obj.size, start, end, err)
		}
	})
	total.strays = c.strays.Load() - strays
	return total
}

// runClients runs client(i, t) for n clients at once, each recording
// into its own tally, and returns the merged tallies.
func runClients(n int, client func(i int, t *tally)) *tally {
	tallies := make([]*tally, n)
	var wg sync.WaitGroup
	for i := range tallies {
		tallies[i] = newTally()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client(i, tallies[i])
		}(i)
	}
	wg.Wait()
	total := newTally()
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}

// churnClients is how many closed-loop clients cache-churn runs.
const churnClients = 2

// churnRig is source → 1 caching depot → sink with clients making
// Zipf-distributed requests over a working set larger than the cache.
type churnRig struct {
	*tcpRig
	hops  []wire.Endpoint
	objs  []*object
	zipfs []*mrand.Zipf // one request stream per client
	bytes int64         // the cache's budget
}

// buildCacheChurn pre-generates the working set, starts the caching
// chain, and warms until the cache is nearly full, so every measured
// request meets a cache in steady state. The cache has a memory tier
// only: a disk tier on the shared disk of the machine the benchmark was
// sized on made whole runs fast or slow at random (see README.md).
func buildCacheChurn(cfg config) (rig, *tally, error) {
	n, size, budget := 512, int64(128<<10), int64(20<<20)
	if cfg.tiny {
		n, size, budget = 32, 16<<10, 320<<10
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 3))
	raw := make([]byte, size)
	objs := make([]*object, n)
	for i := range objs {
		obj, err := framedObject(rng, size, raw, wire.TraceID(mkID(cfg.seed, 3, uint64(i))))
		if err != nil {
			return nil, nil, err
		}
		objs[i] = obj
	}
	reg := obs.NewRegistry()
	cc, err := cache.New(cache.Config{MemoryBytes: budget, Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	r, err := newTCPRig(reg, cfg.seed, 1, cc)
	if err != nil {
		return nil, nil, err
	}
	c := &churnRig{tcpRig: r, hops: r.route(), objs: objs, bytes: budget}
	for i := 0; i < churnClients; i++ {
		src := mrand.New(mrand.NewSource(cfg.seed*churnClients + int64(i)))
		c.zipfs = append(c.zipfs, mrand.NewZipf(src, 1.1, 1, uint64(n-1)))
	}
	warm := newTally()
	for i := 0; i < 8*n && c.cache.Stats().MemBytes < c.bytes*9/10; i++ {
		c.request(c.zipfs[0], nil, warm)
	}
	warm.strays = c.strays.Load()
	return c, warm, nil
}

func (c *churnRig) drive(stop time.Time, tr *tracer) *tally {
	c.setTracer(tr)
	defer c.setTracer(nil)
	strays := c.strays.Load()
	total := runClients(len(c.zipfs), func(i int, t *tally) {
		for time.Now().Before(stop) {
			c.request(c.zipfs[i], tr, t)
		}
	})
	total.strays = c.strays.Load() - strays
	return total
}

// request probes the caching depot for the next object of a client's
// stream: a full hit is served by the depot from its cache, anything
// else is an origin send through the depot, which populates the cache.
// A serve the depot refuses because the other client's traffic evicted
// the object since the probe falls back to an origin send, as
// lsl-xfer -cached does.
func (c *churnRig) request(zipf *mrand.Zipf, tr *tracer, t *tally) {
	obj := c.objs[zipf.Uint64()]
	root := tr.id()
	start := time.Now()
	ranges, err := lsl.CacheProbe(c.client, c.src, c.hops[0], obj.digest)
	tr.record("lsl.probe", 0, root, root, 0, start, time.Now())
	class := "miss"
	if err == nil {
		id := c.sessionID()
		if len(ranges) > 0 && ranges[0].Off == 0 && ranges[0].Len >= obj.size {
			class = "hit"
			err = c.serve(id, obj, tr, root, start)
			if errors.Is(err, lsl.ErrRefused) {
				class, err = "miss", c.push(c.sessionID(), obj, c.hops, tr, root, root, start)
			}
		} else {
			err = c.push(id, obj, c.hops, tr, root, root, start)
		}
	}
	end := time.Now()
	tr.record("xfer", root, 0, root, 0, start, end)
	if err == nil && class == "hit" {
		t.hits++
	}
	t.record(class, obj.size, start, end, err)
}

// serve directs the caching depot to push obj from its cache to the
// sink, then waits for the sink's verdict.
func (c *churnRig) serve(id wire.SessionID, obj *object, tr *tracer, root uint64, start time.Time) error {
	w := c.expect(id, obj.size, start, root, root)
	t0 := time.Now()
	sess, err := lsl.OpenCacheServe(c.client, id, c.src, c.sinkEP(), c.hops, obj.digest,
		wire.ByteRange{Off: 0, Len: obj.size}, obj.opts...)
	if err != nil {
		c.waiters.Delete(id)
		return err
	}
	// The holder answers only to refuse; it closes the directive once
	// the served bytes are on their way to the sink.
	hdr, rerr := wire.ReadHeader(sess)
	sess.Close()
	tr.record("cache.serve", 0, root, root, 0, t0, time.Now())
	if rerr == nil && hdr.Type == wire.TypeRefuse {
		c.waiters.Delete(id)
		return fmt.Errorf("serve directive for %d bytes: %w", obj.size, lsl.ErrRefused)
	}
	return c.await(id, w)
}
