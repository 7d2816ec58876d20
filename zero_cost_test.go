package repro_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/olden"
)

// TestFaultLayerZeroCostWhenDisabled locks the "zero cost when disabled"
// property of the fault-injection layer against the PR 3 baseline: with
// RunConfig.Faults nil, the simulator must execute the same guest schedule
// (instruction count unchanged) and allocate no more per run than the
// recorded BenchmarkSimulator baseline in BENCH_pr3.json.
func TestFaultLayerZeroCostWhenDisabled(t *testing.T) {
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
	var wantInstr, wantAllocs float64
	for _, b := range base.Benchmarks {
		if b.Name == "Simulator" {
			wantInstr, wantAllocs = b.GuestInstructions, b.AllocsPerOp
		}
	}
	if wantInstr == 0 {
		t.Fatal("BENCH_pr3.json has no Simulator entry")
	}

	// The exact BenchmarkSimulator workload: power at quick parameters,
	// optimized, 4 nodes, no faults.
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
		t.Errorf("fault-free guest instruction count changed: got %d, baseline %v",
			res.Counts.Instructions, wantInstr)
	}
	if res.Faults != nil {
		t.Error("fault-free run carries FaultStats")
	}

	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Run(u, core.RunConfig{Nodes: 4}); err != nil {
			t.Fatal(err)
		}
	})
	// Allow a sliver of headroom for host-runtime noise; the point is that
	// the fault layer must not add per-message or per-event allocations
	// (which would show up as thousands, not units).
	if allocs > wantAllocs+8 {
		t.Errorf("fault-free run allocates %.0f objects/op, baseline %v", allocs, wantAllocs)
	}
}
