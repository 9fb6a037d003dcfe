package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errUnverified marks a transfer whose bytes reached the sink but did
// not match what the source sent.
var errUnverified = errors.New("output failed verification")

// tally is what clients record. Each client keeps its own and they are
// merged when the phase ends, so recording takes no lock.
type tally struct {
	attempted  int64
	refused    int64                // the program declined the transfer
	unverified int64                // delivered bytes differ from the input
	failed     int64                // any other error, including a timed-out wait
	strays     int64                // sessions the sink saw that no client expected
	bytes      int64                // verified payload bytes
	done       []xfer               // verified transfers
	byClass    map[string][]float64 // ms per transfer class
	hits       int64                // cache-churn transfers served from cache
	cached     int64                // core-modes payload of TransferCached calls
	cacheBytes int64                // ... of which depot caches served
	firstErr   error
}

// xfer is one verified transfer.
type xfer struct {
	start, end time.Time
	size       int64
}

func (x xfer) ms() float64 { return float64(x.end.Sub(x.start)) / float64(time.Millisecond) }

func newTally() *tally { return &tally{byClass: map[string][]float64{}} }

// record files one transfer: verified when err is nil.
func (t *tally) record(class string, size int64, start, end time.Time, err error) {
	t.attempted++
	if err != nil {
		switch {
		case errors.Is(err, lsl.ErrRefused):
			t.refused++
		case errors.Is(err, errUnverified):
			t.unverified++
		default:
			t.failed++
		}
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	x := xfer{start: start, end: end, size: size}
	t.bytes += size
	t.done = append(t.done, x)
	if class != "" {
		t.byClass[class] = append(t.byClass[class], x.ms())
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.refused += o.refused
	t.unverified += o.unverified
	t.failed += o.failed
	t.strays += o.strays
	t.bytes += o.bytes
	t.done = append(t.done, o.done...)
	for k, v := range o.byClass {
		t.byClass[k] = append(t.byClass[k], v...)
	}
	t.hits += o.hits
	t.cached += o.cached
	t.cacheBytes += o.cacheBytes
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) bad() int64      { return t.refused + t.unverified + t.failed }
func (t *tally) verified() int64 { return t.attempted - t.bad() }

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.bad()) / float64(t.attempted)
}

// procSnap is the process-wide cost counters at one instant.
type procSnap struct {
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcs:        ms.NumGC,
	}
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the all-CPU line of /proc/stat: the ticks the
// hypervisor gave to other guests (steal) and the ticks in all. ok is
// false where the file or the steal column is missing.
func hostTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// peakRSSMB is the process's peak resident set in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024 / 1e6          // Linux reports KiB
}

// layerSnap is every layer counter a rig reads from outside the
// program: depot Stats, the shared obs registry and cache Stats.
// Fields a workload has no layer for stay zero.
type layerSnap struct {
	refused, errors, checksumErrs int64
	bytesForwarded, stallNanos    int64
	chunkWrite                    obs.HistogramSnapshot
	dials                         int64 // onward dials through Config.Dial
	cacheEvictions                int64
	cacheMem, cacheDisk           int64
	stolen, dupAcks, retries      int64 // core multipath and recovery counters
	multipathXfers                int64
}

// registryLayers fills the registry-backed fields of a snapshot.
func registryLayers(reg *obs.Registry, l *layerSnap) {
	s := reg.Snapshot()
	l.bytesForwarded = s.Counters[depot.MetricBytesForwarded]
	l.stallNanos = s.Counters[depot.MetricPumpStallNanos]
	l.chunkWrite = s.Histograms[depot.MetricChunkWriteSeconds]
}

// percentile interpolates linearly between closest ranks; q in [0,100].
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 50) }

// tailQuantile is the highest percentile, capped at 99, that leaves at
// least ten samples beyond it (never below the median).
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 50
	}
	q := 100 * (1 - 10/float64(n))
	return math.Max(50, math.Min(99, q))
}

// histQuantile estimates a quantile from histogram buckets (non-
// cumulative counts) by interpolating inside the bucket that holds it.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	lower, seen := 0.0, 0.0
	for _, b := range h.Buckets {
		if seen+float64(b.Count) >= rank && b.Count > 0 {
			upper := b.UpperBound
			if math.IsInf(upper, 1) {
				return lower
			}
			return lower + (upper-lower)*(rank-seen)/float64(b.Count)
		}
		seen += float64(b.Count)
		if !math.IsInf(b.UpperBound, 1) {
			lower = b.UpperBound
		}
	}
	return lower
}

// histDelta subtracts two snapshots of one histogram.
func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	out := obs.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for i, bk := range b.Buckets {
		if i < len(a.Buckets) {
			bk.Count -= a.Buckets[i].Count
		}
		out.Buckets = append(out.Buckets, bk)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// window is one slice of a measured phase. Each verified transfer's
// bytes are spread over its own lifetime, so a window holds the share
// of every transfer that overlapped it: a 64 MiB object that straddles
// two windows counts in both, in proportion.
type window struct {
	secs, bytes, count, cpu float64
	lat                     []float64 // ms of transfers that ended in the window
}

// windowsOf slices a phase at its CPU sample times.
func windowsOf(p *phase) []window {
	ws := make([]window, len(p.cpu)-1)
	for k := range ws {
		ws[k].secs = p.cpu[k+1].at.Sub(p.cpu[k].at).Seconds()
		ws[k].cpu = float64(p.cpu[k+1].cpu - p.cpu[k].cpu)
	}
	for _, x := range p.t.done {
		life := x.end.Sub(x.start)
		for k := range ws {
			lo, hi := p.cpu[k].at, p.cpu[k+1].at
			if !x.end.After(lo) || !x.start.Before(hi) {
				continue
			}
			if !x.end.After(hi) {
				ws[k].lat = append(ws[k].lat, x.ms())
			}
			from, to := x.start, x.end
			if from.Before(lo) {
				from = lo
			}
			if to.After(hi) {
				to = hi
			}
			frac := 1.0
			if life > 0 {
				frac = float64(to.Sub(from)) / float64(life)
			}
			ws[k].bytes += frac * float64(x.size)
			ws[k].count += frac
		}
	}
	return ws
}

// latency returns the median and tail transfer time, the tail's
// percentile and the samples per estimate. With at least 1000
// transfers in every window on average, both are medians of the
// per-window figures (a stall that hits one window moves the tail of
// that window only); otherwise they come from the whole phase.
func latency(p *phase, ws []window) (p50, tail, q float64, per int) {
	if per = len(p.t.done) / len(ws); per >= 1000 {
		var p50s, tails []float64
		for _, w := range ws {
			p50s = append(p50s, percentile(w.lat, 50))
			tails = append(tails, percentile(w.lat, tailQuantile(len(w.lat))))
		}
		return median(p50s), median(tails), tailQuantile(per), per
	}
	lat := make([]float64, len(p.t.done))
	for i, x := range p.t.done {
		lat[i] = x.ms()
	}
	q = tailQuantile(len(lat))
	return percentile(lat, 50), percentile(lat, q), q, len(lat)
}

// endToEnd computes the metrics a user of the system sees, from an
// untraced phase: the rates are medians over the phase's windows.
func endToEnd(p *phase, ws []window, setup, rssMB float64) map[string]metric {
	var goodput, rate, cpb []float64
	for _, w := range ws {
		goodput = append(goodput, w.bytes/1e6/w.secs)
		rate = append(rate, w.count/w.secs)
		cpb = append(cpb, ratio(w.cpu, w.bytes))
	}
	p50, tail, _, _ := latency(p, ws)
	return map[string]metric{
		"goodput_MBps":    {median(goodput), "MB/s"},
		"xfers_per_s":     {median(rate), "1/s"},
		"xfer_ms_p50":     {p50, "ms"},
		"xfer_ms_tail":    {tail, "ms"},
		"cpu_ns_per_byte": {median(cpb), "ns/B"},
		"rss_peak_MB":     {rssMB, "MB"},
		"setup_s":         {setup, "s"},
	}
}

// perLayer computes the layer metrics from a traced phase, plus the
// tracing overhead against the untraced phase that preceded it.
func perLayer(p, untraced *phase, leaked int) map[string]metric {
	secs := p.wall.Seconds()
	bytes := float64(p.t.bytes)
	xfers := float64(len(p.t.done))
	l0, l1 := p.l0, p.l1
	fwd := float64(l1.bytesForwarded - l0.bytesForwarded)
	chunk := histDelta(l0.chunkWrite, l1.chunkWrite)
	tr := p.tr
	us := func(name string, q float64) float64 { return percentile(tr.durations(name, -1, time.Microsecond), q) }
	ms := func(name string, hop int) float64 { return percentile(tr.durations(name, hop, time.Millisecond), 50) }
	class := func(c string) float64 { return percentile(p.t.byClass[c], 50) }
	const mib, gib = 1 << 20, 1 << 30

	m := map[string]metric{
		"proc.cpu_util":             {ratio(float64(p.p1.cpu-p.p0.cpu), float64(p.wall)), "cores"},
		"proc.mallocs_per_MiB":      {ratio(float64(p.p1.mallocs-p.p0.mallocs), bytes/mib), "1/MiB"},
		"proc.alloc_bytes_per_byte": {ratio(float64(p.p1.allocBytes-p.p0.allocBytes), bytes), "B/B"},
		"proc.gc_per_GiB":           {ratio(float64(p.p1.gcs-p.p0.gcs), bytes/gib), "1/GiB"},
		"proc.goroutines_leaked":    {float64(leaked), "count"},

		"xfer.count":       {xfers, "count"},
		"xfer.failed_frac": {p.t.failedFrac(), "ratio"},

		"lsl.open_us_p50":  {us("lsl.open", 50), "us"},
		"lsl.open_us_p99":  {us("lsl.open", 99), "us"},
		"lsl.probe_us_p50": {us("lsl.probe", 50), "us"},

		"src.write_share":         {ratio(tr.total("src.write"), tr.total("xfer")), "ratio"},
		"sink.first_byte_ms_p50":  {ms("sink.first_byte", -1), "ms"},
		"sink.digest_ns_per_byte": {ratio(float64(tr.sum("sink.digest_ns")), float64(tr.sum("sink.digest_bytes"))), "ns/B"},

		"depot.handle_ms_p50":        {ms("depot.handle", 0), "ms"},
		"depot.hop1.handle_ms_p50":   {ms("depot.handle", 1), "ms"},
		"depot.hop2.handle_ms_p50":   {ms("depot.handle", 2), "ms"},
		"depot.hop3.handle_ms_p50":   {ms("depot.handle", 3), "ms"},
		"depot.sink.handle_ms_p50":   {ms("depot.sink_handle", -1), "ms"},
		"depot.dial_us_p50":          {us("depot.dial", 50), "us"},
		"depot.dials_per_xfer":       {ratio(float64(l1.dials-l0.dials), xfers), "count"},
		"depot.pump_stall_s_per_GiB": {ratio(float64(l1.stallNanos-l0.stallNanos)/1e9, fwd/gib), "s/GiB"},
		"depot.chunk_write_us_p50":   {histQuantile(chunk, 0.5) * 1e6, "us"},
		"depot.chunk_write_us_mean":  {chunk.Mean() * 1e6, "us"},
		"depot.refused":              {float64(l1.refused - l0.refused), "count"},
		"depot.errors":               {float64(l1.errors - l0.errors), "count"},
		"depot.checksum_errors":      {float64(l1.checksumErrs - l0.checksumErrs), "count"},

		"cache.hit_ratio":       {ratio(float64(p.t.hits), xfers), "ratio"},
		"cache.evictions_per_s": {float64(l1.cacheEvictions-l0.cacheEvictions) / secs, "1/s"},
		"cache.disk_share":      {ratio(float64(l1.cacheDisk), float64(l1.cacheMem+l1.cacheDisk)), "ratio"},
		"cache.serve_ms_p50":    {class("hit"), "ms"},
		"cache.miss_ms_p50":     {class("miss"), "ms"},

		"core.reliable_ms_p50":         {class("reliable"), "ms"},
		"core.striped_ms_p50":          {class("striped"), "ms"},
		"core.multipath_ms_p50":        {class("multipath"), "ms"},
		"core.cached_ms_p50":           {class("cached"), "ms"},
		"core.ranges_stolen_per_xfer":  {ratio(float64(l1.stolen-l0.stolen), float64(l1.multipathXfers-l0.multipathXfers)), "count"},
		"core.duplicate_acks_per_xfer": {ratio(float64(l1.dupAcks-l0.dupAcks), float64(l1.multipathXfers-l0.multipathXfers)), "count"},
		"core.retry_attempts":          {float64(l1.retries - l0.retries), "count"},
		"core.cache_served_share":      {ratio(float64(p.t.cacheBytes), float64(p.t.cached)), "ratio"},

		"trace.untraced_goodput_MBps": {untraced.goodputMBps(), "MB/s"},
		"trace.traced_goodput_MBps":   {p.goodputMBps(), "MB/s"},
		"trace.overhead_frac":         {ratio(untraced.goodputMBps()-p.goodputMBps(), untraced.goodputMBps()), "ratio"},
		"trace.spans":                 {float64(len(tr.spans)), "count"},
	}
	return m
}

// environment records what the figures depend on besides the code.
func environment() string {
	reuse := "unknown"
	if b, err := os.ReadFile("/proc/sys/net/ipv4/tcp_tw_reuse"); err == nil {
		reuse = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s os=%s/%s tcp_tw_reuse=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, reuse)
}
