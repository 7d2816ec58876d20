package repro_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/olden"
)

// simulatorBaseline reads the BenchmarkSimulator entry of BENCH_pr3.json,
// the PR 3 perf pin both zero-cost tests compare against.
func simulatorBaseline(t *testing.T) (wantInstr, wantAllocs float64) {
	t.Helper()
	raw, err := os.ReadFile("BENCH_pr3.json")
	if err != nil {
		t.Skipf("no PR 3 baseline: %v", err)
	}
	var base struct {
		Benchmarks []struct {
			Name              string  `json:"name"`
			GuestInstructions float64 `json:"guest_instructions"`
			AllocsPerOp       float64 `json:"allocs_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("BENCH_pr3.json: %v", err)
	}
	for _, b := range base.Benchmarks {
		if b.Name == "Simulator" {
			return b.GuestInstructions, b.AllocsPerOp
		}
	}
	t.Fatal("BENCH_pr3.json has no Simulator entry")
	return 0, 0
}

// TestMetricsZeroCostWhenDisabled locks the "zero cost when disabled"
// property of the telemetry layer against the PR 3 baseline, the same way
// TestFaultLayerZeroCostWhenDisabled pins the fault layer: with no registry
// and no sampler attached, the simulator must execute the identical guest
// schedule and allocate no more per run than the recorded BenchmarkSimulator
// baseline.
func TestMetricsZeroCostWhenDisabled(t *testing.T) {
	wantInstr, wantAllocs := simulatorBaseline(t)

	// The exact BenchmarkSimulator workload: power at quick parameters,
	// optimized, 4 nodes, no telemetry.
	bm := olden.ByName("power")
	p := core.NewPipeline(core.Options{Optimize: true})
	cr, err := p.Do(core.CompileRequest{Name: "power.ec", Source: bm.Source(quickParams(bm))})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	res, err := p.Run(u, core.RunConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.Counts.Instructions) != wantInstr {
		t.Errorf("unmetered guest instruction count changed: got %d, baseline %v",
			res.Counts.Instructions, wantInstr)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Run(u, core.RunConfig{Nodes: 4}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > wantAllocs+8 {
		t.Errorf("unmetered run allocates %.0f objects/op, baseline %v", allocs, wantAllocs)
	}
}

// TestMetricsRegistryRunOverheadBounded: a pipeline with a registry attached
// (but no sampler) updates a handful of counters per run — the steady-state
// per-run allocation cost must stay within a few objects of the unmetered
// baseline, and the guest schedule must be untouched.
func TestMetricsRegistryRunOverheadBounded(t *testing.T) {
	wantInstr, wantAllocs := simulatorBaseline(t)

	bm := olden.ByName("power")
	reg := metrics.NewRegistry()
	p := core.NewPipeline(core.Options{Optimize: true, Metrics: reg})
	cr, err := p.Do(core.CompileRequest{Name: "power.ec", Source: bm.Source(quickParams(bm))})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	// Prime: the first run registers the counters (which allocates once).
	res, err := p.Run(u, core.RunConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.Counts.Instructions) != wantInstr {
		t.Errorf("metered guest instruction count changed: got %d, baseline %v",
			res.Counts.Instructions, wantInstr)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Run(u, core.RunConfig{Nodes: 4}); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state: counter lookups are map reads and updates are atomics,
	// so the budget is the unmetered baseline plus a sliver of noise.
	if allocs > wantAllocs+16 {
		t.Errorf("metered run allocates %.0f objects/op, unmetered baseline %v", allocs, wantAllocs)
	}
}
