package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/olden"
)

// The perf checks that do not depend on host speed, pinned with literal
// constants: the deterministic counts every run reproduces exactly on any
// host, and ceilings on what the root benchmarks' operations allocate.
// Wall-clock speed is measured by the repo benchmark (perfbench/), which
// compares a change against its parent on one host.

// exact is what one operation must reproduce on any host. A field a case
// does not measure stays zero on both sides.
type exact struct {
	GuestInstructions int64 // BenchmarkSimulator
	SimpleOps, OptOps int64 // Figure 10, BenchmarkFig10
	Events            int64 // BenchmarkSimNodes
}

// A perfPin is one benchmark operation, the counts it reproduces, and
// ceilings on its steady-state heap allocations per run (allocs/op and B/op
// as `go test -benchmem` reports them).
type perfPin struct {
	name string
	// setup compiles what the operation needs and returns the operation.
	setup     func(t *testing.T) func() exact
	want      exact
	maxAllocs int64
	maxBytes  int64
}

// perfPins mirrors BenchmarkSimulator, BenchmarkFig10, BenchmarkCompile,
// BenchmarkCompileWarm and BenchmarkSimNodes. The ceilings sit about 40%
// (allocs) and 80% (bytes) above what those benchmarks allocated when
// first recorded; counts above them mean a per-event or per-message
// allocation crept into a hot path.
var perfPins = []perfPin{
	// power at quick size, -O, 4 nodes, no faults and no telemetry: the
	// fault layer and the metrics registry cost nothing when disabled.
	{"Simulator", simulatorOp, exact{GuestInstructions: 257219}, 207, 190341},

	{"Fig10/power", fig10Op("power"), exact{SimpleOps: 6464, OptOps: 2672}, 530, 426013},
	{"Fig10/tsp", fig10Op("tsp"), exact{SimpleOps: 3298, OptOps: 1534}, 4370, 853817},
	{"Fig10/health", fig10Op("health"), exact{SimpleOps: 14929, OptOps: 7017}, 2245, 718142},
	{"Fig10/perimeter", fig10Op("perimeter"), exact{SimpleOps: 6493, OptOps: 5897}, 6973, 7102983},
	{"Fig10/voronoi", fig10Op("voronoi"), exact{SimpleOps: 15990, OptOps: 8758}, 19699, 936703},

	{"Compile", compileOp(false), exact{}, 40404, 4975317},
	{"CompileWarm", compileOp(true), exact{}, 28, 14212},

	{"SimNodes/nodes=4/seq", haloOp(4, false), exact{Events: 1930}, 438, 150561},
	{"SimNodes/nodes=4/par", haloOp(4, true), exact{Events: 1930}, 480, 136564},
	{"SimNodes/nodes=64/seq", haloOp(64, false), exact{Events: 32890}, 6830, 1949650},
	{"SimNodes/nodes=64/par", haloOp(64, true), exact{Events: 32890}, 7716, 2163666},
	{"SimNodes/nodes=256/seq", haloOp(256, false), exact{Events: 131962}, 27266, 8404014},
	{"SimNodes/nodes=256/par", haloOp(256, true), exact{Events: 131962}, 30843, 9349104},
	{"SimNodes/nodes=1024/seq", haloOp(1024, false), exact{Events: 528250}, 108987, 44858532},
	{"SimNodes/nodes=1024/par", haloOp(1024, true), exact{Events: 528250}, 123320, 48748631},
}

// TestPerfPins runs each operation once (which also primes its caches, as
// the benchmarks do before timing), checks its counts, then measures its
// steady-state allocations over a few more runs. Under -race only the
// counts are checked: the detector allocates on its own (CompileWarm
// reads 32 allocs/op there, 20 without it).
func TestPerfPins(t *testing.T) {
	for _, c := range perfPins {
		t.Run(c.name, func(t *testing.T) {
			op := c.setup(t)
			if got := op(); got != c.want {
				t.Errorf("counts = %+v, want %+v", got, c.want)
			}
			if raceEnabled {
				return
			}
			allocs, bytes := perRun(3, op)
			t.Logf("%d allocs/op, %d B/op", allocs, bytes)
			if allocs > c.maxAllocs {
				t.Errorf("%d allocs/op, ceiling %d", allocs, c.maxAllocs)
			}
			if bytes > c.maxBytes {
				t.Errorf("%d B/op, ceiling %d", bytes, c.maxBytes)
			}
		})
	}
}

// perRun reports the mean heap allocations and bytes allocated by n calls
// of op, counted the way `go test -benchmem` counts them.
func perRun(n int, op func() exact) (allocs, bytes int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / int64(n),
		int64(after.TotalAlloc-before.TotalAlloc) / int64(n)
}

// compilePower compiles power at quick size with -O, the simulator pins'
// workload.
func compilePower(t *testing.T, p *core.Pipeline) *core.Unit {
	t.Helper()
	bm := olden.ByName("power")
	cr, err := p.Do(core.CompileRequest{Name: "power.ec", Source: bm.Source(olden.QuickParams(bm))})
	if err != nil {
		t.Fatal(err)
	}
	return cr.Unit
}

func simulatorOp(t *testing.T) func() exact {
	p := core.NewPipeline(core.Options{Optimize: true})
	u := compilePower(t, p)
	return func() exact {
		res, err := p.Run(u, core.RunConfig{Nodes: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults != nil {
			t.Error("fault-free run carries FaultStats")
		}
		return exact{GuestInstructions: res.Counts.Instructions}
	}
}

// fig10Op measures one benchmark's Figure 10 row at quick size on 4 nodes,
// through the harness's shared compile cache.
func fig10Op(name string) func(t *testing.T) func() exact {
	return func(t *testing.T) func() exact {
		bm := olden.ByName(name)
		return func() exact {
			row, err := harness.MeasureFig10Single(bm, olden.QuickParams(bm), 4)
			if err != nil {
				t.Fatal(err)
			}
			return exact{SimpleOps: row.TotalSimple, OptOps: row.OptTotal()}
		}
	}
}

// compileOp compiles health at its default size with -O: cold on every
// call, or warm from a filled unit cache.
func compileOp(warm bool) func(t *testing.T) func() exact {
	return func(t *testing.T) func() exact {
		bm := olden.ByName("health")
		req := core.CompileRequest{Name: "health.ec", Source: bm.Source(bm.DefaultParams)}
		opts := core.Options{Optimize: true}
		if warm {
			opts.Cache = cache.New(0, "")
		}
		p := core.NewPipeline(opts)
		if warm {
			if _, err := p.Do(req); err != nil {
				t.Fatal(err)
			}
		}
		return func() exact {
			res, err := p.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if warm && !res.Hit {
				t.Fatal("warm compile missed the cache")
			}
			return exact{}
		}
	}
}

// haloOp runs the halo ring exchange on nodes simulated nodes, driven by
// one goroutine or by GOMAXPROCS of them.
func haloOp(nodes int, par bool) func(t *testing.T) func() exact {
	return func(t *testing.T) func() exact {
		bm := olden.Halo()
		p := core.NewPipeline(core.Options{Optimize: true})
		cr, err := p.Do(core.CompileRequest{Name: "halo.ec", Source: bm.Source(bm.DefaultParams)})
		if err != nil {
			t.Fatal(err)
		}
		rc := core.RunConfig{Nodes: nodes, SimWorkers: 1}
		if par {
			rc.SimWorkers = runtime.GOMAXPROCS(0)
		}
		return func() exact {
			res, err := p.Run(cr.Unit, rc)
			if err != nil {
				t.Fatal(err)
			}
			return exact{Events: res.Events}
		}
	}
}

// maxMeteredAllocs bounds a metered run: a registry attached (no sampler)
// updates a handful of counters per run, so it may allocate only a few
// objects more than an unmetered one.
const maxMeteredAllocs = 274

// TestMetricsRegistryRunOverheadBounded: with a registry attached the guest
// schedule is untouched and the steady-state allocations per run stay
// within maxMeteredAllocs.
func TestMetricsRegistryRunOverheadBounded(t *testing.T) {
	p := core.NewPipeline(core.Options{Optimize: true, Metrics: metrics.NewRegistry()})
	u := compilePower(t, p)
	// Prime: the first run registers the counters (which allocates once).
	res, err := p.Run(u, core.RunConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Instructions != 257219 {
		t.Errorf("metered guest instruction count = %d, want 257219", res.Counts.Instructions)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Run(u, core.RunConfig{Nodes: 4}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxMeteredAllocs {
		t.Errorf("metered run allocates %.0f objects/op, ceiling %d", allocs, maxMeteredAllocs)
	}
}

// maxUnmeteredAllocs bounds a run with the fault layer and the metrics
// registry both off: the steady-state allocations per run of the
// BenchmarkSimulator workload plus a sliver of host-runtime noise. A
// per-message or per-event allocation in either layer's disabled path would
// show up as thousands, not units.
const maxUnmeteredAllocs = 266

// unmeteredRun runs the BenchmarkSimulator workload (power at quick size,
// -O, 4 nodes, no faults, no telemetry) once to prime it, checks its guest
// instruction count, and returns its first result and its steady-state
// allocations per run.
func unmeteredRun(t *testing.T) (*earthsim.Result, float64) {
	t.Helper()
	p := core.NewPipeline(core.Options{Optimize: true})
	u := compilePower(t, p)
	res, err := p.Run(u, core.RunConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Instructions != 257219 {
		t.Errorf("guest instruction count = %d, want 257219", res.Counts.Instructions)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Run(u, core.RunConfig{Nodes: 4}); err != nil {
			t.Fatal(err)
		}
	})
	return res, allocs
}

// TestFaultLayerZeroCostWhenDisabled: with RunConfig.Faults nil the
// simulator executes the same guest schedule, reports no FaultStats and
// allocates no more than maxUnmeteredAllocs per run.
func TestFaultLayerZeroCostWhenDisabled(t *testing.T) {
	res, allocs := unmeteredRun(t)
	if res.Faults != nil {
		t.Error("fault-free run carries FaultStats")
	}
	if allocs > maxUnmeteredAllocs {
		t.Errorf("fault-free run allocates %.0f objects/op, ceiling %d", allocs, maxUnmeteredAllocs)
	}
}

// TestMetricsZeroCostWhenDisabled: with no registry and no sampler attached
// the simulator executes the same guest schedule and allocates no more than
// maxUnmeteredAllocs per run.
func TestMetricsZeroCostWhenDisabled(t *testing.T) {
	_, allocs := unmeteredRun(t)
	if allocs > maxUnmeteredAllocs {
		t.Errorf("unmetered run allocates %.0f objects/op, ceiling %d", allocs, maxUnmeteredAllocs)
	}
}
