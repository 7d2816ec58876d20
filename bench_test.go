// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (§5) as testing.B benchmarks:
//
//	BenchmarkTable1/...  — communication microbenchmarks (Table I)
//	BenchmarkFig10/...   — dynamic communication counts (Figure 10)
//	BenchmarkTable3/...  — simple vs optimized execution times (Table III)
//
// Each benchmark iteration runs a full compile-and-simulate cycle; the
// interesting quantities (simulated nanoseconds, operation counts,
// improvement percentages) are attached as custom metrics, so
// `go test -bench=. -benchmem` prints both host cost and the reproduced
// numbers. The host-independent part of that output — exact counts and
// allocation ceilings — is pinned by TestPerfPins.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/olden"
)

// BenchmarkTable1 regenerates the Table I microbenchmarks once per
// iteration and reports the measured per-operation costs.
func BenchmarkTable1(b *testing.B) {
	var res *harness.Table1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.MeasureTable1()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(float64(row.Sequential), row.Operation[:4]+"_seq_ns")
		b.ReportMetric(float64(row.Pipelined), row.Operation[:4]+"_pipe_ns")
	}
}

// BenchmarkFig10 runs each Olden benchmark in simple and optimized form on
// a 4-node machine, reporting the communication-count reduction.
func BenchmarkFig10(b *testing.B) {
	for _, bm := range olden.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			// Prime the harness's shared compile cache so allocs/op measures
			// the warm measure-and-simulate cycle regardless of b.N: without
			// this the cold compile amortizes across iterations and the
			// metric depends on benchtime.
			if _, err := harness.MeasureFig10Single(bm, olden.QuickParams(bm), 4); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var row harness.Fig10Row
			for i := 0; i < b.N; i++ {
				res, err := harness.MeasureFig10Single(bm, olden.QuickParams(bm), 4)
				if err != nil {
					b.Fatal(err)
				}
				row = *res
			}
			b.ReportMetric(float64(row.TotalSimple), "simple_ops")
			b.ReportMetric(float64(row.OptTotal()), "opt_ops")
			b.ReportMetric(row.Normalized(), "opt_pct_of_simple")
		})
	}
}

// BenchmarkTable3 runs each Olden benchmark at 1 and 4 simulated nodes,
// reporting simulated times and the optimization improvement.
func BenchmarkTable3(b *testing.B) {
	for _, bm := range olden.All() {
		bm := bm
		for _, nodes := range []int{1, 4} {
			nodes := nodes
			b.Run(bm.Name+"/nodes="+itoa(nodes), func(b *testing.B) {
				var simpleNs, optNs int64
				for i := 0; i < b.N; i++ {
					s, o, err := harness.RunPair(bm, olden.QuickParams(bm), nodes)
					if err != nil {
						b.Fatal(err)
					}
					simpleNs, optNs = s.Time, o.Time
				}
				b.ReportMetric(float64(simpleNs)/1e6, "simple_sim_ms")
				b.ReportMetric(float64(optNs)/1e6, "opt_sim_ms")
				b.ReportMetric(100*(1-float64(optNs)/float64(simpleNs)), "improvement_pct")
			})
		}
	}
}

// BenchmarkCompile measures the compiler pipeline itself (parse through
// communication selection) on the largest benchmark source.
func BenchmarkCompile(b *testing.B) {
	bm := olden.ByName("health")
	src := bm.Source(bm.DefaultParams)
	b.ReportAllocs()
	p := core.NewPipeline(core.Options{Optimize: true})
	for i := 0; i < b.N; i++ {
		if _, err := p.Do(core.CompileRequest{Name: "health.ec", Source: src}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileWarm measures recompiling the unchanged source against a
// warm compile cache: the unit LRU serves the same immutable unit, so the
// warm cost is hashing the source plus one lookup. Paired with
// BenchmarkCompile it shows the cache contract — warm recompile under 10%
// of cold, pinned by TestWarmRecompileUnderTenPercentOfCold.
func BenchmarkCompileWarm(b *testing.B) {
	bm := olden.ByName("health")
	src := bm.Source(bm.DefaultParams)
	p := core.NewPipeline(core.Options{Optimize: true, Cache: cache.New(0, "")})
	req := core.CompileRequest{Name: "health.ec", Source: src}
	if _, err := p.Do(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Hit {
			b.Fatal("warm compile missed the cache")
		}
	}
}

// BenchmarkSimulator measures raw simulator throughput (instructions per
// host second) on the power benchmark.
func BenchmarkSimulator(b *testing.B) {
	bm := olden.ByName("power")
	src := bm.Source(olden.QuickParams(bm))
	p := core.NewPipeline(core.Options{Optimize: true})
	cr, err := p.Do(core.CompileRequest{Name: "power.ec", Source: src})
	if err != nil {
		b.Fatal(err)
	}
	u := cr.Unit
	// Exclude one-shot setup from the measurement so allocs/op is
	// independent of b.N (the quick perf gate runs at -benchtime 50ms, where
	// the compile's ~29k allocations and the first run's threaded-code
	// generation would otherwise dominate): prime the per-Unit code cache
	// with one run, then reset the counters.
	if _, err := p.Run(u, core.RunConfig{Nodes: 4}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instr int64
	for i := 0; i < b.N; i++ {
		res, err := p.Run(u, core.RunConfig{Nodes: 4})
		if err != nil {
			b.Fatal(err)
		}
		instr = res.Counts.Instructions
	}
	b.ReportMetric(float64(instr), "guest_instructions")
}

// BenchmarkSimNodes is the event-loop scalability sweep: the halo ring
// exchange (one cell per node, nearest-neighbor traffic only) at rising
// machine sizes, with the per-node shards driven by one goroutine (seq) and
// by SimWorkers=GOMAXPROCS (par). Both modes produce bit-identical results
// — the equivalence matrix in internal/earthsim pins that — so the sweep
// isolates pure event-loop cost: wall time per run plus events/sec. The
// event counts are deterministic; TestPerfPins pins them.
func BenchmarkSimNodes(b *testing.B) {
	bm := olden.Halo()
	src := bm.Source(bm.DefaultParams)
	p := core.NewPipeline(core.Options{Optimize: true})
	cr, err := p.Do(core.CompileRequest{Name: "halo.ec", Source: src})
	if err != nil {
		b.Fatal(err)
	}
	u := cr.Unit
	for _, nodes := range []int{4, 64, 256, 1024} {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"par", runtime.GOMAXPROCS(0)}} {
			nodes, mode := nodes, mode
			b.Run("nodes="+itoa(nodes)+"/"+mode.name, func(b *testing.B) {
				rc := core.RunConfig{Nodes: nodes, SimWorkers: mode.workers}
				// Prime the per-Unit threaded-code cache so allocs/op measures
				// the simulator, not one-shot code generation.
				if _, err := p.Run(u, rc); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var events int64
				for i := 0; i < b.N; i++ {
					res, err := p.Run(u, rc)
					if err != nil {
						b.Fatal(err)
					}
					events = res.Events
				}
				b.ReportMetric(float64(events), "events")
				b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events_sec")
			})
		}
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + itoa(n%10)
}
