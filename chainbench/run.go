package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	measure  time.Duration // length of the measured phase
	trace    bool
	workdir  string
	setups   int
	cpus     string // which CPUs the run is pinned to, for the notes
	// tiny shrinks every object and pool so a run finishes in well under
	// a second; the smoke test uses it.
	tiny bool
}

// rig is one built workload: its listeners, depots, caches and
// pre-generated objects. Set-up (including warm-up) happens in the
// workload's build function, so that setup_s covers all of it.
type rig interface {
	// drive runs the workload's clients in closed loop until stop and
	// returns what they recorded. tr is nil in untraced phases.
	drive(stop time.Time, tr *tracer) *tally
	// layers reads the layer counters the rig can see from outside.
	layers() layerSnap
	// close shuts every depot down, waits for their sessions and removes
	// temporary state.
	close() error
}

// workload is a named traffic mix.
type workload struct {
	name  string
	build func(cfg config) (rig, *tally, error) // returns the warm-up tally too
}

var workloads = []workload{
	{"chain-bulk", buildChainBulk},
	{"chain-small", buildChainSmall},
	{"cache-churn", buildCacheChurn},
	{"core-modes", buildCoreModes},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// windows is how many equal slices a measured phase is cut into; the
// end-to-end rates are medians over them.
const windows = 10

// phase is one measured interval.
type phase struct {
	wall   time.Duration
	t      *tally
	p0, p1 procSnap
	l0, l1 layerSnap
	cpu    []cpuSample // at the start and at the end of every window
	tr     *tracer
	// stealFrac is the share of the host's CPU time the hypervisor gave
	// to other guests during the phase, or -1 where it cannot be read.
	stealFrac float64
}

// cpuSample is the process CPU time at one instant.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

func (p *phase) goodputMBps() float64 {
	return float64(p.t.bytes) / 1e6 / p.wall.Seconds()
}

func measure(r rig, d time.Duration, tr *tracer) *phase {
	// Start every phase from a collected heap, so one phase's garbage
	// is not charged to the next.
	runtime.GC()
	p := &phase{tr: tr, l0: r.layers(), p0: readProc(), stealFrac: -1}
	steal0, total0, ok0 := hostTicks()
	start := time.Now()
	p.cpu = append(p.cpu, cpuSample{start, p.p0.cpu})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k <= windows; k++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(k) / windows)))
			p.cpu = append(p.cpu, cpuSample{time.Now(), cpuTime()})
		}
	}()
	p.t = r.drive(start.Add(d), tr)
	<-sampled
	p.wall = time.Since(start)
	p.p1 = readProc()
	p.l1 = r.layers()
	if steal1, total1, ok1 := hostTicks(); ok0 && ok1 && total1 > total0 {
		p.stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	return p
}

// report is what a run prints: readable notes, then the result line.
type report struct {
	notes  []string
	result result
}

func (rep *report) notef(format string, args ...any) {
	rep.notes = append(rep.notes, fmt.Sprintf(format, args...))
}

func run(cfg config) (*report, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{}
	rep.notef("chainbench workload=%s seed=%d seconds=%g trace=%t setups=%d",
		cfg.workload, cfg.seed, cfg.measure.Seconds(), cfg.trace, cfg.setups)
	rep.notef("env %s", environment())
	if cfg.cpus != "" {
		rep.notef("cpus %s", cfg.cpus)
	}

	baseGoroutines := runtime.NumGoroutine()
	total := newTally()
	var (
		r      rig
		setups []float64
	)
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		built, warm, err := wl.build(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total.merge(warm)
		if i < cfg.setups-1 {
			if err := built.close(); err != nil {
				return nil, fmt.Errorf("teardown after set-up %d: %w", i+1, err)
			}
			// Collect this repetition's objects before the next builds
			// its own, so rss_peak_MB sees one set-up's footprint.
			runtime.GC()
			continue
		}
		r = built
	}
	rep.notef("setup_s repetitions %s", formatFloats(setups))

	var main, untraced *phase
	if cfg.trace {
		// Same rig, two halves: untraced first, then traced, so the
		// difference in goodput is the tracing overhead.
		untraced = measure(r, cfg.measure/2, nil)
		main = measure(r, cfg.measure/2, newTracer())
		total.merge(untraced.t)
	} else {
		main = measure(r, cfg.measure, nil)
	}
	total.merge(main.t)
	rssMB := peakRSSMB()
	if main.stealFrac >= 0 {
		// Steal is time the host ran other guests on this machine's
		// CPUs; it slows every wall-clock metric and no change to the
		// program can remove it.
		rep.notef("host steal %.3f of CPU time during the measured phase", main.stealFrac)
	}

	if err := r.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	leaked := goroutinesLeaked(baseGoroutines)
	if leaked > 0 {
		rep.notef("teardown: %d goroutine(s) still running after every depot shut down", leaked)
	}

	rep.notef("result attempted=%d verified=%d failed=%d refused=%d unverified=%d failed_frac=%g",
		total.attempted, total.verified(), total.failed, total.refused, total.unverified, total.failedFrac())
	if total.firstErr != nil {
		rep.notef("first failure: %v", total.firstErr)
	}
	if total.strays > 0 {
		rep.notef("sink saw %d session(s) no client was waiting for", total.strays)
	}

	var metrics map[string]metric
	if cfg.trace {
		metrics = perLayer(main, untraced, leaked)
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := main.tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.notef("spans: %d kept (%d dropped) written to %s", len(main.tr.spans), main.tr.dropped, path)
	} else {
		ws := windowsOf(main)
		metrics = endToEnd(main, ws, median(setups), rssMB)
		var rates []float64
		for _, w := range ws {
			rates = append(rates, w.bytes/1e6/w.secs)
		}
		rep.notef("goodput_MBps per window %s", formatFloats(rates))
		n := len(main.t.done)
		_, _, q, per := latency(main, ws)
		switch {
		case per < n:
			rep.notef("xfer_ms_p99 %.4f ms: median of the p99 of %d windows of about %d transfers each (%d in all); xfer_ms_tail is this p99",
				metrics["xfer_ms_tail"].Value, len(ws), per, n)
		case n >= 1000:
			rep.notef("xfer_ms_p99 %.4f ms over %d transfers; xfer_ms_tail is this p99", metrics["xfer_ms_tail"].Value, n)
		default:
			rep.notef("xfer_ms_p99 omitted: %d transfers < 1000; xfer_ms_tail is p%.1f of %d transfers", n, q, n)
		}
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.notef("metric %-32s %14.6g %s", name, metrics[name].Value, metrics[name].Unit)
	}

	rep.result = result{
		Correct:   total.attempted > 0 && total.bad() == 0 && total.strays == 0,
		Attempted: total.attempted,
		Failed:    total.bad(),
		Metrics:   metrics,
	}
	return rep, nil
}

// goroutinesLeaked waits briefly for goroutines that teardown stopped
// to finish exiting, then reports how many remain above base.
func goroutinesLeaked(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			if n < 0 {
				n = 0
			}
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func formatFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
