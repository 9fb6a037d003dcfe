package experiments

import (
	"fmt"
	"strings"

	"github.com/netlogistics/lsl/internal/core"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/simtime"
	"github.com/netlogistics/lsl/internal/stats"
	"github.com/netlogistics/lsl/internal/topo"
)

// MultipathConfig parameterizes the disjoint-route aggregation sweep.
type MultipathConfig struct {
	Seed      int64
	Size      int64   // bytes per transfer
	Paths     []int   // route counts to measure, in order
	Reps      int     // transfers averaged per route count
	TimeScale float64 // emulation time compression
}

// DefaultMultipath measures 8 MB transfers over one and then both of
// the testbed's edge-disjoint depot routes, three runs each.
func DefaultMultipath() MultipathConfig {
	return MultipathConfig{
		Seed:  1,
		Size:  8 << 20,
		Paths: []int{1, 2},
		Reps:  3,
		// Capacity-limited regime: per-range transmission time on a
		// 20 Mbit/s segment must dominate the fixed per-range setup
		// and ack costs, or the aggregation signal drowns in them.
		TimeScale: 0.1,
	}
}

// MultipathRow is the measured and forecast throughput at one route
// count.
type MultipathRow struct {
	Paths     int
	Mbit      float64 // mean delivered throughput, Mbit per emulated second
	Speedup   float64 // vs the single-route row (1.0 when none ran)
	Predicted float64 // planner's aggregate-capacity forecast, Mbit/s
	Stolen    int     // work-stolen ranges summed over the reps
	Verified  bool    // every rep's end-to-end digest checked out
}

// multipathTopology is the sweep's testbed: two fully edge-disjoint
// depot routes between src and dst, each capacity-limited at 20
// Mbit/s per segment, with only a 1 Mbit/s trickle directly. One
// route alone is pinned at its bottleneck segment; fanning the
// transfer across both should roughly double delivered throughput.
// Depot forwarding is deliberately not the bottleneck (ForwardRate
// must stay positive — the planner prices transit as 1/ForwardRate).
func multipathTopology() (*topo.Topology, error) {
	const (
		mbit = 1e6 / 8
		buf  = int64(8 << 20)
	)
	hosts := []topo.Host{
		{Name: "src", Site: "src", SndBuf: buf, RcvBuf: buf},
		{Name: "depot-a", Site: "a", SndBuf: buf, RcvBuf: buf,
			Depot: true, ForwardRate: 1e9, PipelineBytes: 1 << 20},
		{Name: "depot-b", Site: "b", SndBuf: buf, RcvBuf: buf,
			Depot: true, ForwardRate: 1e9, PipelineBytes: 1 << 20},
		{Name: "dst", Site: "dst", SndBuf: buf, RcvBuf: buf},
	}
	tp, err := topo.New("multipath", hosts)
	if err != nil {
		return nil, err
	}
	ms := simtime.Milliseconds
	set := func(a, b string, capMbit float64) {
		tp.SetLink(tp.MustHost(a), tp.MustHost(b), topo.Link{RTT: ms(10), Capacity: capMbit * mbit})
	}
	set("src", "depot-a", 20)
	set("depot-a", "dst", 20)
	set("src", "depot-b", 20)
	set("depot-b", "dst", 20)
	set("src", "dst", 1)
	return tp, nil
}

// Multipath measures delivered throughput of one object moved over a
// varying number of edge-disjoint depot routes, each row set against
// the planner's aggregate-capacity forecast for the same route set.
// Every transfer runs with end-to-end integrity on, so the sweep also
// demonstrates the digest surviving out-of-order multi-route
// reassembly. The expected shape: aggregate throughput well above the
// best single minimax route — the work-stealing queue keeps both
// routes busy until the object's tail.
func Multipath(cfg MultipathConfig) ([]MultipathRow, error) {
	if cfg.Size <= 0 {
		cfg.Size = DefaultMultipath().Size
	}
	if len(cfg.Paths) == 0 {
		cfg.Paths = DefaultMultipath().Paths
	}
	if cfg.Reps <= 0 {
		cfg.Reps = DefaultMultipath().Reps
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = DefaultMultipath().TimeScale
	}
	tp, err := multipathTopology()
	if err != nil {
		return nil, fmt.Errorf("experiments: multipath: %w", err)
	}
	reg := obs.NewRegistry()
	sys, err := core.NewSystem(tp, core.Config{
		TimeScale: cfg.TimeScale,
		Seed:      cfg.Seed,
		Metrics:   reg,
		Integrity: true,
		Epsilon:   -1, // paper-default edge equivalence
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: multipath: %w", err)
	}
	defer sys.Close()

	src, dst := tp.MustHost("src"), tp.MustHost("dst")
	rows := make([]MultipathRow, 0, len(cfg.Paths))
	var base float64 // single-route mean, for the speedup column
	for _, k := range cfg.Paths {
		routes, err := sys.Planner.DisjointPaths(src, dst, k)
		if err != nil {
			return nil, fmt.Errorf("experiments: multipath: %w", err)
		}
		var mbits []float64
		stolen := 0
		mismatchBefore := reg.Counter(core.MetricDigestMismatches).Value()
		verifiedBefore := reg.Counter(core.MetricMultipathDigestVerified).Value()
		for rep := 0; rep < cfg.Reps; rep++ {
			res, err := sys.TransferMultipath("src", "dst", cfg.Size, k, core.DefaultRecovery())
			if err != nil {
				return nil, fmt.Errorf("experiments: multipath %d routes: %w", k, err)
			}
			mbits = append(mbits, res.Bandwidth*8/1e6)
			stolen += res.Stolen
		}
		// A single route verifies through the ordinary in-order digest
		// path (no mismatches); true multi-route reps must additionally
		// count one stitched verification each.
		verified := reg.Counter(core.MetricDigestMismatches).Value() == mismatchBefore
		if k > 1 && len(routes) > 1 {
			verified = verified &&
				reg.Counter(core.MetricMultipathDigestVerified).Value() == verifiedBefore+int64(cfg.Reps)
		}
		row := MultipathRow{
			Paths:     len(routes),
			Mbit:      stats.Mean(mbits),
			Predicted: sys.Planner.AggregateBandwidth(routes) * 8 / 1e6,
			Stolen:    stolen,
			Verified:  verified,
		}
		if k == 1 {
			base = row.Mbit
		}
		row.Speedup = 1
		if base > 0 {
			row.Speedup = row.Mbit / base
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatMultipath renders the sweep plus the planner's route-count
// suggestion for the same host pair.
func FormatMultipath(rows []MultipathRow) string {
	var b strings.Builder
	b.WriteString("Multipath: one transfer fanned across edge-disjoint depot routes (8 MB object)\n")
	fmt.Fprintf(&b, "%6s %12s %9s %15s %7s %9s\n", "paths", "Mbit/s", "speedup", "forecast Mbit/s", "stolen", "digest")
	for _, r := range rows {
		digest := "FAIL"
		if r.Verified {
			digest = "ok"
		}
		fmt.Fprintf(&b, "%6d %12.2f %8.2fx %15.2f %7d %9s\n", r.Paths, r.Mbit, r.Speedup, r.Predicted, r.Stolen, digest)
	}
	return b.String()
}

// SuggestedPaths reruns the sweep's planning step alone and reports the
// planner's pick: every disjoint route still adding meaningful
// aggregate capacity, with the forecast for the set.
func SuggestedPaths(max int) (int, float64, error) {
	tp, err := multipathTopology()
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: multipath: %w", err)
	}
	sys, err := core.NewSystem(tp, core.Config{TimeScale: 0.1, Seed: 1, Metrics: obs.NewRegistry(), Epsilon: -1})
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: multipath: %w", err)
	}
	defer sys.Close()
	routes, bw, err := sys.Planner.SuggestPaths(tp.MustHost("src"), tp.MustHost("dst"), max)
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: multipath: %w", err)
	}
	return len(routes), bw * 8 / 1e6, nil
}
