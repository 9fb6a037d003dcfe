package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// spec is the part of ../BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each run verifies every output and prints exactly the
// metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(declared)
	sort.Strings(have)
	if len(declared) != len(have) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program runs %v", declared, have)
	}
	for i := range have {
		if declared[i] != have[i] {
			t.Fatalf("BENCHMARK.json declares workloads %v, the program runs %v", declared, have)
		}
	}
	units := func(traced bool) map[string]string {
		out := map[string]string{}
		list := s.EndToEnd
		if traced {
			list = s.PerLayer
		}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 7, measure: 400 * time.Millisecond, trace: traced,
				workdir: t.TempDir(), setups: 2, tiny: true}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			res := rep.result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d; notes:\n%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, rep.notes)
			}
			want := units(traced)
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%t: metric %s missing", w.name, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%t: metric %s unit %q, BENCHMARK.json says %q", w.name, traced, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%t: metric %s is not declared in BENCHMARK.json", w.name, traced, name)
				}
			}
			if traced && res.Metrics["xfer.failed_frac"].Value != 0 {
				t.Errorf("%s: xfer.failed_frac = %g", w.name, res.Metrics["xfer.failed_frac"].Value)
			}
			if !traced && res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s = %g", w.name, res.Metrics["setup_s"].Value)
			}
		}
	}
}
