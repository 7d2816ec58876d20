// Command perfbench is the repository's benchmark. It drives the compiler,
// simulator and earthd service only through their public entry points
// (core.Pipeline.Do and Run, server.Open over loopback HTTP, and each
// compile layer's exported function in the traced run), checks every output
// against oracles that do not trust the compiler under test, and prints its
// metrics as one JSON object on the last line of standard output.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
//
// --workload is paper, halo-1024, service, or all. --trace 0 measures the
// end-to-end metrics; --trace 1 makes the separate traced run that reports
// the per-layer metrics and writes its spans under --work-dir. --spec
// prints BENCHMARK.json, which is generated from the tables in spec.go.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// workDir holds the traced run's spans and the service's journal.
	workDir string
	// out receives the human-readable lines printed before the result.
	out io.Writer
}

func (c runConfig) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(c.seed, stream))
}

// outcome is a workload's result: operations attempted and failed (errors
// and output mismatches alike), and metric values by name.
type outcome struct {
	mu                sync.Mutex // guards attempted and failed
	attempted, failed int
	metrics           map[string]float64
	log               *spanLog
	// hostLoop holds the reference loop's times (calib.go); asTimed
	// names the end-to-end metrics the workload reports unscaled.
	hostLoop samples
	asTimed  map[string]bool
}

func newOutcome(cfg runConfig) *outcome {
	o := &outcome{metrics: make(map[string]float64)}
	if cfg.trace {
		o.log = newSpanLog()
	}
	return o
}

// check records one operation; a non-nil err counts it as failed and is
// reported on standard error.
func (o *outcome) check(err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %v\n", err)
		return false
	}
	return true
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// repeatSetup runs a workload's set-up n times, keeping the last result;
// set-up time is the median, so work moved into set-up shows.
func repeatSetup[T any](n int, f func() (T, error)) (T, float64, error) {
	var (
		v   T
		err error
		s   samples
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if v, err = f(); err != nil {
			return v, 0, err
		}
		s.addDur(time.Since(t0), time.Second)
		runtime.GC()
	}
	return v, s.median(), nil
}

const setupRepeats = 5

func runWorkload(w workloadSpec, cfg runConfig) (*result, error) {
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	o, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	res := &result{Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue)}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	if !cfg.trace {
		if len(o.hostLoop) == 0 {
			return nil, fmt.Errorf("%s: the reference loop was never timed", w.name)
		}
		o.metrics["peak_rss_mb"] = peakRSSMB()
		scale := o.hostScale()
		fmt.Fprintf(cfg.out, "host speed: reference loop %.4f ms (%d times), times scaled by %.4f\n",
			o.hostLoop.quantile(typicalQ), len(o.hostLoop), 1/scale)
		for _, m := range endToEnd {
			v, ok := o.metrics[m.name]
			if !ok {
				return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, m.name)
			}
			raw := v
			switch {
			case o.asTimed[m.name]:
			case m.scaled == "time":
				v /= scale
			case m.scaled == "rate":
				v *= scale
			}
			fmt.Fprintf(cfg.out, "metric: %-20s %12.4f %-9s (as timed: %.4f)\n", m.name, v, m.unit, raw)
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		return res, nil
	}
	o.metrics["runtime.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	for _, m := range perLayer {
		// A layer the workload does not exercise reads 0.
		res.Metrics[m.name] = metricValue{o.metrics[m.name], m.unit}
		fmt.Fprintf(cfg.out, "layer: %-28s %14.4f %-6s moves: %s\n", m.name, o.metrics[m.name], m.unit, m.moves)
	}
	if o.log != nil {
		path := filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
		if err := o.log.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(cfg.out, "spans: %d written to %s\n", len(o.log.spans), path)
		self := o.log.selfTimes()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(cfg.out, "self: %-28s %10.3f ms\n", n, float64(self[n])/1e6)
		}
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "paper, halo-1024, service, or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", runSeconds, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workDir := flag.String("work-dir", ".bench_build", "directory for spans (traces/) and service journals (tmp/)")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if *spec {
		b, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	var todo []workloadSpec
	for _, w := range workloads {
		if *workload == w.name || *workload == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper|halo-1024|service|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	host, err := json.Marshal(fingerprint(root))
	if err != nil {
		fatal(err)
	}
	for _, w := range todo {
		cfg := runConfig{
			seed:    *seed,
			seconds: time.Duration(*seconds * float64(time.Second)),
			trace:   *traceFlag == 1,
			workDir: *workDir,
			out:     os.Stdout,
		}
		fmt.Printf("host: %s\n", host)
		fmt.Printf("workload: %s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traceFlag)
		res, err := runWorkload(w, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		b, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
