package earthsim_test

// The determinism matrix: the simulator must be externally indistinguishable
// from itself at every worker count — the whole Result (time, every counter
// including Instructions, event count, output, fault statistics) and the
// full observability surface (Chrome trace export and telemetry series
// JSON), with the fault layer both off and on, on a 4-node machine, a
// one-node machine and a zero-latency 4-node machine.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/metrics"
	"repro/internal/olden"
	"repro/internal/trace"
)

// matrixRun compiles bm at quick size and executes it once on the given
// cost model (nil = the calibrated defaults), returning the result plus the
// rendered trace and telemetry-series bytes.
func matrixRun(t *testing.T, bm *olden.Benchmark, nodes, workers int, faultSpec string, machine *earthsim.Config) (*earthsim.Result, string, string) {
	t.Helper()
	rec := trace.NewRecorder(nodes)
	sampler := metrics.NewSampler(50_000, 0)
	p := core.NewPipeline(core.Options{Optimize: true, Trace: rec})
	cr, err := p.Do(core.CompileRequest{Name: bm.Name + ".ec", Source: bm.Source(olden.QuickParams(bm))})
	if err != nil {
		t.Fatal(err)
	}
	var faults *earthsim.FaultConfig
	if faultSpec != "" {
		faults, err = earthsim.ParseFaultSpec(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run(cr.Unit, core.RunConfig{
		Nodes: nodes, SimWorkers: workers, Faults: faults, Sampler: sampler, Machine: machine,
	})
	if err != nil {
		t.Fatalf("%s nodes=%d workers=%d faults=%q: %v", bm.Name, nodes, workers, faultSpec, err)
	}
	var tr, se bytes.Buffer
	if err := rec.WriteChrome(&tr); err != nil {
		t.Fatal(err)
	}
	if err := sampler.WriteSeriesJSON(&se); err != nil {
		t.Fatal(err)
	}
	return res, tr.String(), se.String()
}

// resultDiff describes how two Results differ ("" when identical in every
// field but Profile).
func resultDiff(a, b *earthsim.Result) string {
	switch {
	case a.Time != b.Time:
		return fmt.Sprintf("time %d vs %d", a.Time, b.Time)
	case a.Counts != b.Counts:
		return fmt.Sprintf("counts [%s] vs [%s]", a.Counts, b.Counts)
	case a.Events != b.Events:
		return fmt.Sprintf("events %d vs %d", a.Events, b.Events)
	case a.Output != b.Output || a.MainRet != b.MainRet:
		return fmt.Sprintf("output/ret %q/%#x vs %q/%#x", a.Output, a.MainRet, b.Output, b.MainRet)
	case (a.Faults == nil) != (b.Faults == nil) || a.Faults != nil && *a.Faults != *b.Faults:
		return fmt.Sprintf("fault stats %v vs %v", a.Faults, b.Faults)
	}
	return ""
}

// TestShardedEquivalenceMatrix sweeps {Olden benchmark + halo} x {machine:
// 4 nodes, 1 node, 4 nodes at NetLatency=0} x {faults off/on} x
// {SimWorkers 0 (default), 1, 2, 8} and asserts an identical Result and
// byte-identical trace export and series JSON across worker counts. The
// zero-latency machine must also print the default machine's output and
// return the same value.
func TestShardedEquivalenceMatrix(t *testing.T) {
	zeroLat := earthsim.DefaultConfig(4)
	zeroLat.NetLatency = 0
	machines := []struct {
		name    string
		nodes   int
		machine *earthsim.Config
	}{
		{"4n", 4, nil},
		{"1n", 1, nil},
		{"4n-lat0", 4, &zeroLat},
	}
	for _, bm := range append(olden.All(), olden.Halo()) {
		for _, faultSpec := range []string{"", "drop=0.01,dup=0.005,stall=0.02,delay=2,seed=11"} {
			name := bm.Name
			if faultSpec != "" {
				name += "/faults"
			}
			bm, faultSpec := bm, faultSpec
			t.Run(name, func(t *testing.T) {
				var def *earthsim.Result
				for _, mc := range machines {
					t.Run(mc.name, func(t *testing.T) {
						ref, refTrace, refSeries := matrixRun(t, bm, mc.nodes, 0, faultSpec, mc.machine)
						switch mc.name {
						case "4n":
							def = ref
						case "4n-lat0":
							if def == nil {
								t.Fatal("default-cost reference run missing")
							}
							if ref.Output != def.Output || ref.MainRet != def.MainRet {
								t.Errorf("NetLatency=0 output/ret %q/%#x differs from default cost %q/%#x",
									ref.Output, ref.MainRet, def.Output, def.MainRet)
							}
						}
						for _, w := range []int{1, 2, 8} {
							res, tr, se := matrixRun(t, bm, mc.nodes, w, faultSpec, mc.machine)
							if d := resultDiff(res, ref); d != "" {
								t.Errorf("workers=%d Result diverges from workers=0: %s", w, d)
							}
							if tr != refTrace {
								t.Errorf("workers=%d trace export not byte-identical (%d vs %d bytes)", w, len(tr), len(refTrace))
							}
							if se != refSeries {
								t.Errorf("workers=%d series JSON not byte-identical (%d vs %d bytes)", w, len(se), len(refSeries))
							}
						}
					})
				}
			})
		}
	}
}

// TestSharded256Nodes: a quick benchmark on a 256-node machine completes
// and is identical at one and two workers.
func TestSharded256Nodes(t *testing.T) {
	bm := olden.ByName("power")
	one, _, _ := matrixRun(t, bm, 256, 1, "", nil)
	two, _, _ := matrixRun(t, bm, 256, 2, "", nil)
	if d := resultDiff(two, one); d != "" {
		t.Errorf("256-node run diverges between 1 and 2 workers: %s", d)
	}
}

// ewmaRun executes bm under an aggressive retransmission timeout with the
// chosen RTO policy and returns the fault statistics.
func ewmaRun(t *testing.T, bm *olden.Benchmark, fixed bool) earthsim.FaultStats {
	t.Helper()
	p := core.NewPipeline(core.Options{Optimize: true})
	cr, err := p.Do(core.CompileRequest{Name: bm.Name + ".ec", Source: bm.Source(olden.QuickParams(bm))})
	if err != nil {
		t.Fatal(err)
	}
	// No loss, no reordering: every retransmission under this config is
	// spurious by construction. Timeout sits just above the unloaded
	// round-trip, so any queueing pushes the fixed policy into needless
	// retransmits while the EWMA estimator adapts its RTO upward.
	faults := &earthsim.FaultConfig{Timeout: 8_000, MaxRetries: 50, Seed: 1}
	faults.SetFixedRTO(fixed)
	res, err := p.Run(cr.Unit, core.RunConfig{Nodes: 4, Faults: faults})
	if err != nil {
		t.Fatalf("%s fixed=%v: %v", bm.Name, fixed, err)
	}
	if res.Faults == nil {
		t.Fatalf("%s fixed=%v: no fault stats", bm.Name, fixed)
	}
	return *res.Faults
}

// TestEWMAReducesSpuriousRetransmits: the adaptive srtt/rttvar estimator
// must cut spurious retransmissions versus the historical fixed-timeout
// policy on a real workload (ISSUE satellite: EWMA RTT estimation).
func TestEWMAReducesSpuriousRetransmits(t *testing.T) {
	bm := olden.ByName("power")
	fixed := ewmaRun(t, bm, true)
	ewma := ewmaRun(t, bm, false)
	if fixed.SpuriousRetries == 0 {
		t.Fatalf("fixed-RTO baseline produced no spurious retransmits (stats %+v); timeout too lax for the comparison", fixed)
	}
	if ewma.SpuriousRetries >= fixed.SpuriousRetries {
		t.Errorf("EWMA did not reduce spurious retransmits: ewma=%d fixed=%d",
			ewma.SpuriousRetries, fixed.SpuriousRetries)
	}
	t.Logf("spurious retransmits: fixed=%d ewma=%d (%.1fx reduction)",
		fixed.SpuriousRetries, ewma.SpuriousRetries,
		float64(fixed.SpuriousRetries)/float64(max(ewma.SpuriousRetries, 1)))
}
