// Command lsl-depot runs a logistical storage depot on real TCP
// sockets: it accepts LSL sessions, forwards them along their source
// routes or its route table, and delivers sessions addressed to itself.
//
// Usage:
//
//	lsl-depot -listen 0.0.0.0:7411 -self 198.51.100.7:7411 \
//	          [-routes routes.txt] [-pipeline 32] [-max-sessions 64] \
//	          [-queue-depth 16] [-queue-timeout 10s] \
//	          [-fair-share] [-trunk-rate 0] \
//	          [-spool-dir /var/lib/lsl/spool] [-spool-bytes 1073741824] \
//	          [-cache-bytes 268435456] [-cache-dir /var/lib/lsl/cache] \
//	          [-retries 3] [-retry-backoff 100ms] [-failover] \
//	          [-ctl] [-table-driven] [-max-hops 16] \
//	          [-debug-addr 127.0.0.1:7412]
//
// With -max-sessions alone, over-limit sessions are refused outright;
// adding -queue-depth holds up to that many arrivals in a bounded
// admission queue until a slot frees or -queue-timeout elapses
// (depot_admission_queued_total / depot_admission_timeouts_total count
// both outcomes, and admitted waits appear as "queued" trace events).
// -fair-share arbitrates concurrent forwarded sessions with a weighted
// deficit-round-robin scheduler keyed by each session's carried weight
// option; -trunk-rate additionally paces their aggregate to a fixed
// byte rate (0 keeps the scheduler work-conserving).
//
// With -spool-dir the depot's session store grows a durable disk tier:
// when stored payloads overflow the memory budget, the coldest ones
// spill to CRC-framed files in that directory (named by session id and
// payload length, written atomically) instead of being evicted, and a
// restarted depot re-indexes the directory so async-stored sessions
// survive a crash — torn writes and files damaged at rest are detected
// by their frame checksums and length and dropped, never served.
// -spool-bytes caps the disk tier; beyond it the coldest spooled
// payload is evicted for good.
// Sessions opened with the chunk-checksum option (lsl-xfer
// -verify-integrity) are verified and re-stamped as they pass through;
// a damaged chunk stops the forward, refuses the session upstream, and
// counts in depot_checksum_errors_total, so the corrupting hop
// identifies itself in /metrics and in "corrupt" trace events.
//
// With -cache-bytes the depot additionally runs a content-addressed
// chunk cache over that many memory bytes: sessions forwarded with a
// content digest populate it, cache probes and serve-from-cache
// directives are answered from it, and a session whose remaining range
// is held in full is short-circuited — the upstream sublink is
// terminated and the depot serves the bytes itself
// (depot_cache_{hits,misses,evictions,bytes}_total in /metrics,
// "cache-hit" trace events). -cache-dir adds a disk tier four times the
// memory budget: spans displaced from memory spill to CRC-framed files
// there and are re-indexed on restart.
//
// With -retries the depot re-dials a failed onward connection with
// exponential backoff before giving up on a session; -failover makes it
// try the session's final destination directly when the next hop stays
// unreachable. Both recoveries are counted in /metrics
// (depot_forward_retries_total, depot_failovers_total).
//
// The optional routes file has one entry per line:
//
//	<destination-ip:port> <next-hop-ip:port>
//
// With -ctl the depot accepts TypeControl sessions from an lsl-ctl
// controller and installs the route tables they push; -table-driven
// makes the pushed table the routing source of truth (sessions with no
// source route and no table entry are refused instead of dialed
// direct). -max-hops bounds forwarding chains: a session arriving with
// a hop index at or past the limit is refused, so a looping table
// cannot circulate traffic forever.
//
// With -debug-addr the depot serves a live telemetry endpoint:
// GET /metrics returns every counter, gauge, and histogram in a flat
// text format (append ?format=json for a JSON snapshot or ?format=prom
// for the Prometheus text exposition), and GET /sessions lists the
// in-flight sessions with their hop index, byte progress, and pipeline
// occupancy. -pprof additionally mounts net/http/pprof under
// /debug/pprof/ on the same listener. On SIGINT/SIGTERM the depot
// shuts down cleanly and logs a final stats line.
//
// Distributed tracing: -trace-out appends the depot's hop events as
// JSON lines to a file, and -trace-push ships them (batched, lossy
// under backpressure — trace_drops_total counts what was shed) to a
// trace collector's POST /traces/ingest endpoint, where events from
// every depot of a transfer are reassembled into one timeline by the
// wire-carried trace id.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/fairshare"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

var (
	listenAddr   = flag.String("listen", "0.0.0.0:7411", "TCP listen address")
	selfAddr     = flag.String("self", "", "this depot's public ip:port (required)")
	routesPath   = flag.String("routes", "", "optional route table file")
	pipelineMB   = flag.Int("pipeline", 32, "per-session pipeline buffering in MB")
	maxSessions  = flag.Int("max-sessions", 0, "refuse sessions beyond this concurrency (0 = unlimited)")
	queueDepth   = flag.Int("queue-depth", 0, "queue up to this many over-limit sessions for admission instead of refusing them (0 = refuse immediately)")
	queueTimeout = flag.Duration("queue-timeout", depot.DefaultQueueTimeout, "refuse a queued session not admitted within this wait")
	fairShare    = flag.Bool("fair-share", false, "schedule concurrent forwarded sessions by their carried weights (weighted DRR over the downstream trunk)")
	trunkRate    = flag.Float64("trunk-rate", 0, "with -fair-share, pace aggregate forwarding to this many bytes/s (0 = work-conserving)")
	storeBytes   = flag.Int64("store-bytes", depot.DefaultStoreBytes, "memory budget for the async session store; overflow spills to -spool-dir (or evicts without one)")
	spoolDir     = flag.String("spool-dir", "", "durable disk tier for the session store: spill cold payloads here as CRC-framed files and re-index them on restart (empty = memory only)")
	spoolBytes   = flag.Int64("spool-bytes", depot.DefaultSpoolBytes, "with -spool-dir, cap the disk tier at this many bytes (coldest spooled payload evicted beyond it)")
	cacheBytes   = flag.Int64("cache-bytes", 0, "run a content-addressed chunk cache over this many memory bytes; forwarded digest-carrying sessions populate it and repeats are served from it (0 = no cache)")
	cacheDir     = flag.String("cache-dir", "", "with -cache-bytes, spill cold cache spans to CRC-framed files in this directory (4x the memory budget) and re-index them on restart (empty = memory only)")
	dialTimeout  = flag.Duration("dial-timeout", 10*time.Second, "onward connection timeout")
	retries      = flag.Int("retries", 0, "retry a failed onward dial this many times with backoff (0 = dial once)")
	backoff      = flag.Duration("retry-backoff", 100*time.Millisecond, "base delay before the first onward-dial retry (doubles each retry)")
	failover     = flag.Bool("failover", false, "dial a session's final destination directly when its next hop stays unreachable after retries")
	acceptCtl    = flag.Bool("ctl", false, "accept control sessions that push route tables")
	tableDriven  = flag.Bool("table-driven", false, "route unrouted sessions only by the pushed table (miss = refuse)")
	maxHops      = flag.Int("max-hops", 16, "refuse sessions whose hop index reaches this limit (0 = unlimited)")
	debugAddr    = flag.String("debug-addr", "", "serve /metrics and /sessions on this ip:port (empty = off)")
	pprofOn      = flag.Bool("pprof", false, "mount /debug/pprof on the debug listener (needs -debug-addr)")
	traceOut     = flag.String("trace-out", "", "append hop trace events as JSON lines to this file (empty = off)")
	tracePush    = flag.String("trace-push", "", "POST batched trace events to this collector ingest URL, e.g. http://ctl:7502/traces/ingest (empty = off)")
	verbose      = flag.Bool("v", false, "log per-session diagnostics")
)

func main() {
	flag.Parse()
	if *selfAddr == "" {
		fmt.Fprintln(os.Stderr, "lsl-depot: -self is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(); err != nil {
		log.Fatalf("lsl-depot: %v", err)
	}
}

func run() error {
	self, err := wire.ParseEndpoint(*selfAddr)
	if err != nil {
		return err
	}
	var routes func(wire.Endpoint) (wire.Endpoint, bool)
	if *routesPath != "" {
		table, err := loadRoutes(*routesPath)
		if err != nil {
			return err
		}
		log.Printf("loaded %d routes from %s", len(table), *routesPath)
		routes = func(dst wire.Endpoint) (wire.Endpoint, bool) {
			next, ok := table[dst]
			return next, ok
		}
	}

	reg := obs.NewRegistry()
	sessions := obs.NewSessionTable()
	lsl.SetMetrics(reg)

	// Trace sinks: a local JSONL file, a remote collector, or both.
	var sinks obs.MultiSink
	if *traceOut != "" {
		tf, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		defer tf.Close()
		sinks = append(sinks, obs.NewJSONSink(tf).CountDrops(reg.Counter(obs.MetricTraceDrops)))
	}
	if *tracePush != "" {
		push := obs.NewPushSink(obs.PushConfig{URL: *tracePush}).
			CountDrops(reg.Counter(obs.MetricTraceDrops))
		defer push.Close()
		sinks = append(sinks, push)
		log.Printf("pushing trace events to %s", *tracePush)
	}
	var trace obs.Sink
	if len(sinks) > 0 {
		trace = sinks
	}

	cfg := depot.Config{
		Self: self,
		Dial: lsl.DialerFunc(func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, *dialTimeout)
		}),
		Routes:         routes,
		PipelineBytes:  *pipelineMB << 20,
		MaxSessions:    *maxSessions,
		QueueDepth:     *queueDepth,
		QueueTimeout:   *queueTimeout,
		StoreBytes:     *storeBytes,
		SpoolDir:       *spoolDir,
		SpoolBytes:     *spoolBytes,
		FailoverDirect: *failover,
		AcceptControl:  *acceptCtl,
		TableDriven:    *tableDriven,
		MaxHops:        *maxHops,
		Metrics:        reg,
		Sessions:       sessions,
		Trace:          trace,
	}
	if *retries > 0 {
		cfg.ForwardRetry = retry.Policy{MaxAttempts: *retries + 1, BaseDelay: *backoff}
	}
	if *cacheBytes > 0 {
		cc, err := cache.New(cache.Config{MemoryBytes: *cacheBytes, Dir: *cacheDir, Metrics: reg})
		if err != nil {
			return fmt.Errorf("cache: %w", err)
		}
		cfg.Cache = cc
		st := cc.Stats()
		if *cacheDir != "" {
			log.Printf("cache: %d memory bytes + disk tier %s (re-indexed %d spans, dropped %d damaged)",
				*cacheBytes, *cacheDir, st.Recovered, st.Dropped)
		} else {
			log.Printf("cache: %d memory bytes", *cacheBytes)
		}
	} else if *cacheDir != "" {
		return fmt.Errorf("-cache-dir needs -cache-bytes to size the cache")
	}
	if *fairShare {
		cfg.FairShare = fairshare.New(fairshare.Config{Rate: *trunkRate})
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	srv, err := depot.New(cfg)
	if err != nil {
		return err
	}

	if *spoolDir != "" {
		diskBytes, _, recovered, _ := srv.SpoolUsage()
		log.Printf("spool %s: recovered %d durable sessions (%d bytes), budget %d bytes",
			*spoolDir, recovered, diskBytes, *spoolBytes)
	}

	ln, err := net.Listen("tcp", *listenAddr)
	if err != nil {
		return err
	}
	log.Printf("depot %s listening on %s (pipeline %d MB)", self, *listenAddr, *pipelineMB)

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		log.Printf("debug endpoint on http://%s (/metrics, /sessions)", dln.Addr())
		h := obs.NewHandler(obs.HandlerConfig{Registry: reg, Sessions: sessions, Pprof: *pprofOn})
		go func() {
			if herr := http.Serve(dln, h); herr != nil {
				log.Printf("debug endpoint: %v", herr)
			}
		}()
	}

	// A clean shutdown logs the final tallies so short runs still leave
	// a record of what moved.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("received %s, shutting down", sig)
		log.Printf("final %s", statsLine(srv.Stats()))
		srv.Close()
		ln.Close()
	}()

	// Periodic stats line, so operators can watch forwarding volume.
	go func() {
		for range time.Tick(30 * time.Second) {
			log.Print(statsLine(srv.Stats()))
		}
	}()
	err = srv.Serve(ln)
	if err != nil && strings.Contains(err.Error(), "use of closed network connection") {
		return nil
	}
	return err
}

// statsLine renders one depot stats snapshot as a log line.
func statsLine(st depot.Stats) string {
	return fmt.Sprintf("stats: accepted=%d forwarded=%d delivered=%d generated=%d refused=%d errors=%d checksum_errors=%d bytes=%d",
		st.Accepted, st.Forwarded, st.Delivered, st.Generated, st.Refused, st.Errors,
		st.ChecksumErrors, st.BytesForwarded+st.BytesDelivered)
}

func loadRoutes(path string) (map[wire.Endpoint]wire.Endpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	table := make(map[wire.Endpoint]wire.Endpoint)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want 'dst next', got %q", path, lineNo, line)
		}
		dst, err := wire.ParseEndpoint(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		next, err := wire.ParseEndpoint(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		table[dst] = next
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return table, nil
}
