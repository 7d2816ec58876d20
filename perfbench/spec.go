package main

import (
	"bytes"
	"encoding/json"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 30

// workloadSpec names a workload and records why it was chosen.
type workloadSpec struct {
	name string
	why  string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workloadSpec{
	{"paper", "Table III + Figure 10 regenerated: Olden cold/warm compiles and simulator runs on the default engine, bound by guest instructions and events", runPaper},
	{"halo-1024", "halo ring at 1024 nodes on the sharded engine (SimWorkers=1): event loop and shard scheduling at scale, almost no guest work", runHalo},
	{"service", "in-process earthd, 2 shards, journal on, loopback HTTP; open-loop quick Olden jobs (60% repeats, 30% new sizes, 10% faults), then closed-loop capacity", runService},
}

// metricSpec is one reported metric. End-to-end metrics carry a bound (the
// share of the parent's median by which they may worsen); per-layer metrics
// carry the end-to-end metric and workload they are expected to move.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
	moves  string
	// scaled says how an end-to-end metric is brought to the reference
	// host speed (calib.go): "time" or "rate", or "" for none.
	scaled string
}

// endToEnd metrics are measured with tracing off and reported by every
// workload. Each workload measures each of them on its own operations: a
// "job" is a paper row (one Olden program's cold simple and optimized
// compiles, warm recompile and four runs), one halo-1024 simulation with its
// compiles, or one service HTTP job timed from when it was due.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, scaled: "time"},
	{name: "job_p50_ms", unit: "ms", better: "lower", bound: 0.25, scaled: "time"},
	{name: "job_p99_ms", unit: "ms", better: "lower", bound: 0.25, scaled: "time"},
	{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.25, scaled: "rate"},
	{name: "compile_cold_ms", unit: "ms", better: "lower", bound: 0.25, scaled: "time"},
	{name: "compile_cold_p90_ms", unit: "ms", better: "lower", bound: 0.25, scaled: "time"},
	{name: "compile_warm_us", unit: "us", better: "lower", bound: 0.25, scaled: "time"},
	{name: "run_ms", unit: "ms", better: "lower", bound: 0.25, scaled: "time"},
	{name: "run_p90_ms", unit: "ms", better: "lower", bound: 0.25, scaled: "time"},
	{name: "guest_mips", unit: "Minstr/s", better: "higher", bound: 0.25, scaled: "rate"},
	{name: "mevents_per_s", unit: "Mevents/s", better: "higher", bound: 0.25, scaled: "rate"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

const (
	movesCompile = "compile_cold_ms on paper; job_p50_ms on service (misses); not halo-1024"
	movesInstr   = "guest_mips and job_p50_ms on paper"
	movesEvent   = "run_ms and mevents_per_s on halo-1024 and paper"
	movesAlloc   = "peak_rss_mb and job_p50_ms on paper"
	movesExact   = "none: must repeat exactly on a perf-only change"
	movesCache   = "compile_warm_us on paper; job_p50_ms on service"
	movesServer  = "job_p99_ms and jobs_per_s on service"
	movesJournal = "job_p99_ms on service"
)

// perLayer metrics come from the traced run. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricSpec{
	{name: "earthc.parse_ms", unit: "ms", better: "lower", moves: movesCompile},
	{name: "earthc.inline_ms", unit: "ms", better: "lower", moves: movesCompile},
	{name: "earthc.restructure_ms", unit: "ms", better: "lower", moves: movesCompile},
	{name: "sema.check_ms", unit: "ms", better: "lower", moves: movesCompile},
	{name: "lower.program_ms", unit: "ms", better: "lower", moves: movesCompile},
	{name: "pointsto.analyze_ms", unit: "ms", better: "lower", moves: movesCompile},
	{name: "rwsets.analyze_ms", unit: "ms", better: "lower", moves: movesCompile},
	{name: "locality.analyze_ms", unit: "ms", better: "lower", moves: movesCompile},
	{name: "placement.analyze_ms", unit: "ms", better: "lower", moves: movesCompile},
	{name: "commsel.transform_ms", unit: "ms", better: "lower", moves: movesCompile},
	{name: "threaded.generate_ms", unit: "ms", better: "lower", moves: movesCompile},
	{name: "earthc.tokens", unit: "count", better: "lower", moves: movesCompile},
	{name: "simple.basics", unit: "count", better: "lower", moves: movesCompile},
	{name: "placement.read_tuples", unit: "count", better: "lower", moves: movesCompile},
	{name: "placement.write_tuples", unit: "count", better: "lower", moves: movesCompile},
	{name: "commsel.pipelined", unit: "count", better: "higher", moves: movesCompile},
	{name: "commsel.blocked", unit: "count", better: "higher", moves: movesCompile},
	{name: "commsel.eliminated", unit: "count", better: "higher", moves: movesCompile},
	{name: "earthsim.ns_per_instr", unit: "ns", better: "lower", moves: movesInstr},
	{name: "earthsim.ns_per_event", unit: "ns", better: "lower", moves: movesEvent},
	{name: "earthsim.halo_ns_per_event", unit: "ns", better: "lower", moves: movesEvent},
	{name: "earthsim.allocs_per_run", unit: "count", better: "lower", moves: movesAlloc},
	{name: "earthsim.bytes_per_run", unit: "B", better: "lower", moves: movesAlloc},
	{name: "earthsim.guest_instructions", unit: "count", better: "lower", moves: movesExact},
	{name: "earthsim.events", unit: "count", better: "lower", moves: movesExact},
	{name: "earthsim.sim_time_ns", unit: "ns", better: "lower", moves: movesExact},
	{name: "earthsim.remote_ops", unit: "count", better: "lower", moves: movesExact},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher", moves: movesCache},
	{name: "cache.lookup_us", unit: "us", better: "lower", moves: movesCache},
	{name: "cache.func_reuse_ratio", unit: "ratio", better: "higher", moves: movesCache},
	{name: "server.queue_p50_ms", unit: "ms", better: "lower", moves: movesServer},
	{name: "server.queue_p99_ms", unit: "ms", better: "lower", moves: movesServer},
	{name: "server.compile_hit_p50_ms", unit: "ms", better: "lower", moves: movesServer},
	{name: "server.compile_hit_p99_ms", unit: "ms", better: "lower", moves: movesServer},
	{name: "server.compile_miss_p50_ms", unit: "ms", better: "lower", moves: movesServer},
	{name: "server.compile_miss_p99_ms", unit: "ms", better: "lower", moves: movesServer},
	{name: "server.run_p50_ms", unit: "ms", better: "lower", moves: movesServer},
	{name: "server.run_p99_ms", unit: "ms", better: "lower", moves: movesServer},
	{name: "server.http_p50_ms", unit: "ms", better: "lower", moves: movesServer},
	{name: "server.http_p99_ms", unit: "ms", better: "lower", moves: movesServer},
	{name: "server.batched_ratio", unit: "ratio", better: "higher", moves: movesServer},
	{name: "server.rejected", unit: "count", better: "lower", moves: movesServer},
	{name: "journal.append_p50_ms", unit: "ms", better: "lower", moves: movesJournal},
	{name: "journal.append_p99_ms", unit: "ms", better: "lower", moves: movesJournal},
	{name: "journal.complete_p50_ms", unit: "ms", better: "lower", moves: movesJournal},
	{name: "journal.complete_p99_ms", unit: "ms", better: "lower", moves: movesJournal},
	{name: "loadgen.late_ms", unit: "ms", better: "lower", moves: "none: if high, service latencies measure the load generator"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "peak_rss_mb and job_p99_ms on every workload"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "none: cost of the traced run against the untraced one"},
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the file
// and the program cannot drift apart (TestBenchmarkJSONInSync checks the
// committed copy).
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
