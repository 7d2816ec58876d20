package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/earthsim"
	"repro/internal/olden"
)

// TestBenchmarkJSONInSync: BENCHMARK.json at the repository root is what
// spec.go generates (`perfbench --spec`).
func TestBenchmarkJSONInSync(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `perfbench --spec`:\n%s", want)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each prints every metric with its unit and fails no operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, seconds: 1500 * time.Millisecond, trace: traced, workDir: t.TempDir(), out: io.Discard}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, traced, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, traced, m.name, v, m.unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, v.Value)
				}
			}
		}
	}
}

// TestBadOutputCounted: a wrong answer is a failed operation, whether the
// oracle, the simple build, the first pass's counts or the direct run
// catches it.
func TestBadOutputCounted(t *testing.T) {
	if err := oracleCheck("perimeter", 3, 0, 4, "41\n"); err == nil {
		t.Error("perimeter oracle accepted a wrong perimeter")
	}
	if err := oracleCheck("voronoi", 16, 0, 4, "3\n1.0\n"); err == nil {
		t.Error("voronoi oracle accepted a wrong hull")
	}
	if err := oracleCheck("halo", 0, 10, 8, "1.000000\n"); err == nil {
		t.Error("halo oracle accepted a wrong sum")
	}

	o := &outcome{metrics: map[string]float64{}}
	pr := &paperRun{o: o, digest: map[string]cellCounts{}, visible: map[string]string{}}
	p := paperProgram{bm: olden.Tsp(), params: olden.Params{Size: 8}}
	good := &earthsim.Result{Output: "7\n", Time: 10}
	bad := &earthsim.Result{Output: "8\n", Time: 10}
	pr.checkCells(p, map[paperCell]*earthsim.Result{{false, 4}: good, {true, 4}: bad}, false)
	if o.failed != 1 {
		t.Errorf("optimized output differing from simple: %d failures, want 1", o.failed)
	}
	slower := &earthsim.Result{Output: "7\n", Time: 11}
	pr.checkCells(p, map[paperCell]*earthsim.Result{{false, 4}: slower}, false)
	if o.failed != 2 {
		t.Errorf("counts differing between passes: %d failures, want 2", o.failed)
	}

	k := svcKey{bench: "power", size: 8, iters: 2}
	st := &serviceState{expect: map[svcKey]*expected{k: {payload: []byte(`{"output":"1"}`)}}}
	if err := st.checkPayload(k, 200, []byte(`{"name":"power.ec","output":"2"}`), nil); err == nil {
		t.Error("a service payload differing from the direct run was accepted")
	}
	if err := st.checkPayload(k, 429, []byte(`queue full`), nil); err == nil {
		t.Error("a refused service job was accepted")
	}
}

// TestHaloOracleConservesTotal: the symmetric stencil keeps a ring's total
// fixed; seven cells start at 1 + i/3, which sum to 14.
func TestHaloOracleConservesTotal(t *testing.T) {
	if got := haloSum(7, 3); math.Abs(got-14) > 1e-9 {
		t.Errorf("haloSum(7, 3) = %v, want 14", got)
	}
}

// TestServiceStreamStratified: every seed offers the same mix — six
// repeats, three new sizes and one fault job per ten, every program once
// per five — and the same seed the same stream.
func TestServiceStreamStratified(t *testing.T) {
	cfg := runConfig{seed: 3}
	a := serviceStream(cfg.rng(3), 200, map[string][]svcKey{})
	b := serviceStream(cfg.rng(3), 200, map[string][]svcKey{})
	kinds := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		kinds[a[i].kind]++
	}
	for i := 0; i < len(a); i += 5 {
		seen := map[string]bool{}
		for _, j := range a[i : i+5] {
			seen[j.key.bench] = true
		}
		if len(seen) != 5 {
			t.Fatalf("jobs %d..%d cover %d programs, want 5", i, i+4, len(seen))
		}
	}
	// Perimeter has two other depths, so its surplus new sizes fall back to
	// repeats.
	if kinds["fault"] != 20 || kinds["new"]+kinds["repeat"] != 180 || kinds["new"] < 40 {
		t.Errorf("mix %v, want 20 faults and 180 repeats or new sizes", kinds)
	}
	for _, j := range a {
		if j.kind == "fault" && j.key.faultSeed == 0 || j.kind != "fault" && j.key.faultSeed != 0 {
			t.Fatalf("job %+v: fault seed does not match its kind", j)
		}
		if !strings.Contains("power tsp health perimeter voronoi", j.key.bench) {
			t.Fatalf("job %+v: unknown program", j)
		}
	}
}

// TestCellsTypical: each cell's cost is read at its own fast end, cells
// too small to have one are left out, and quantiles are taken over cells.
func TestCellsTypical(t *testing.T) {
	c := cells{}
	for i := 0; i < 10; i++ {
		c.add("fast", 1+float64(i)) // 1..10
		c.add("slow", 100+float64(i))
	}
	c.add("rare", 1000)
	got := c.typical()
	if len(got) != 2 {
		t.Fatalf("typical() = %v, want one cost per cell with %d samples", got, minCell)
	}
	if lo, hi := got.quantile(0), got.quantile(1); math.Abs(lo-1.9) > 1e-9 || math.Abs(hi-100.9) > 1e-9 {
		t.Errorf("cell costs %v, want the 10th percentiles 1.9 and 100.9", got)
	}
	if r := c.typicalRate(); math.Abs(r.quantile(1)-108.1) > 1e-9 {
		t.Errorf("rate costs %v, want the slow cell's 90th percentile 108.1", r)
	}
	if n := c.count(); n != 21 {
		t.Errorf("count() = %d, want 21", n)
	}
}
