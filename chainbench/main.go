// Command chainbench measures what a depot hop costs the host: it
// drives real depot.Servers over 127.0.0.1 TCP (and core.System over
// the emulated network) in one process, verifies every delivered
// object, and prints end-to-end and per-layer metrics.
//
// Usage:
//
//	chainbench --workload chain-bulk --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it start with
// "# " and record the environment, the set-up repetitions and every
// metric in readable form. The exit code is 1 when any output failed
// verification and 2 when the benchmark could not run at all.
// README.md in this directory lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		cfg     config
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&seconds, "seconds", 25, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: report per-layer metrics and the tracing overhead")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the span files of traced runs")
	flag.Parse()
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "chainbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// setup_s is the median of several set-ups, so that one slow set-up
	// does not read as a regression.
	cfg.setups = 5
	cfg.measure = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1

	had, kept, err := pinCPUs(benchCPUs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chainbench:", err)
		os.Exit(2)
	}
	cfg.cpus = fmt.Sprintf("pinned to CPUs %v of %v", kept, had)

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chainbench:", err)
		os.Exit(2)
	}
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chainbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.result.Correct {
		os.Exit(1)
	}
}
