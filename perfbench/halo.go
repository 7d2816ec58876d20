package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/olden"
	"repro/internal/threaded"
)

const haloNodes = 1024

// haloState is the compiled halo ring and its reference run. The halo input
// is fixed (1024 nodes, the default iteration count), so this workload's
// figures across seeds are the host's noise floor.
type haloState struct {
	name, src string
	iters     int
	pipeline  *core.Pipeline
	cache     *cache.Cache
	ref       *earthsim.Result
}

func (h *haloState) runConfig() core.RunConfig {
	return core.RunConfig{Nodes: haloNodes, SimWorkers: 1}
}

func haloSetup() (*haloState, error) {
	bm := olden.Halo()
	h := &haloState{name: "halo.ec", src: bm.Source(bm.DefaultParams), iters: bm.DefaultParams.Iters,
		cache: cache.New(cache.DefaultCapacity, "")}
	h.pipeline = core.NewPipeline(core.Options{Optimize: true, Cache: h.cache})
	res, err := h.pipeline.Do(core.CompileRequest{Name: h.name, Source: h.src})
	if err != nil {
		return nil, err
	}
	if h.ref, err = h.pipeline.Run(res.Unit, h.runConfig()); err != nil {
		return nil, err
	}
	if err := oracleCheck("halo", 0, h.iters, haloNodes, h.ref.Output); err != nil {
		return nil, err
	}
	return h, nil
}

// check compares one run against the reference run and the oracle.
func (h *haloState) check(res *earthsim.Result) error {
	if res.Visible() != h.ref.Visible() {
		return fmt.Errorf("halo: Visible() %q differs from the reference %q", res.Visible(), h.ref.Visible())
	}
	if countsOf(res) != countsOf(h.ref) {
		return fmt.Errorf("halo: counts %+v differ from the reference %+v", countsOf(res), countsOf(h.ref))
	}
	return oracleCheck("halo", 0, h.iters, haloNodes, res.Output)
}

func runHalo(cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg)
	h, setupS, err := repeatSetup(setupRepeats, haloSetup)
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupS
	c := countsOf(h.ref)
	fmt.Fprintf(cfg.out, "digest: halo nodes=%d iters=%d instr=%d events=%d time_ns=%d remote_ops=%d\n",
		haloNodes, h.iters, c.instr, c.events, c.timeNs, c.remoteOps)
	untracedFor := cfg.seconds
	if cfg.trace {
		untracedFor = cfg.seconds / 2
	}
	// Every halo job is the same work, so each quantity is one cell and
	// its quantiles over cells (p50, p90, p99) are that cell's cost.
	jobs, cold, warm, runs := cells{}, cells{}, cells{}, cells{}
	for deadline := time.Now().Add(untracedFor); jobs.count() == 0 || time.Now().Before(deadline); {
		o.probeHost(1)
		t0 := time.Now()
		cres, err := h.pipeline.Do(core.CompileRequest{Name: h.name, Source: h.src, Cache: core.CachePolicy{Bypass: true}})
		coldD := time.Since(t0)
		if !o.check(err) {
			continue
		}
		t1 := time.Now()
		_, err = cres.Unit.Threaded(threaded.Options{})
		genD := time.Since(t1)
		if !o.check(err) {
			continue
		}
		t1 = time.Now()
		wres, err := h.pipeline.Do(core.CompileRequest{Name: h.name, Source: h.src})
		warmD := time.Since(t1)
		if err == nil && !wres.Hit {
			err = fmt.Errorf("halo: warm recompile missed the unit cache")
		}
		if !o.check(err) {
			continue
		}
		t1 = time.Now()
		res, err := h.pipeline.Run(cres.Unit, h.runConfig())
		runD := time.Since(t1)
		if !o.check(err) || !o.check(h.check(res)) {
			continue
		}
		jobs.addDur("halo", coldD+genD+warmD+runD, time.Millisecond)
		cold.addDur("halo", coldD, time.Millisecond)
		warm.addDur("halo", warmD, time.Microsecond)
		runs.addDur("halo", runD, time.Millisecond)
	}
	m := o.metrics
	job, run := jobs.typical(), runs.typical()
	m["job_p50_ms"] = job.median()
	m["job_p99_ms"] = job.quantile(0.99)
	m["jobs_per_s"] = 1000 / job.median()
	m["compile_cold_ms"] = cold.typical().median()
	m["compile_cold_p90_ms"] = cold.typical().quantile(0.9)
	m["compile_warm_us"] = warm.typical().median()
	m["run_ms"] = run.median()
	m["run_p90_ms"] = run.quantile(0.9)
	m["guest_mips"] = float64(c.instr) / run.median() / 1e3
	m["mevents_per_s"] = float64(c.events) / run.median() / 1e3
	fmt.Fprintf(cfg.out, "samples: jobs=%d\n", jobs.count())
	if !cfg.trace {
		return o, nil
	}

	var rounds []layerTotals
	var tracedJobs, layerDo, coldDo, nsEvent, allocs, bytes, lookups samples
	stats0 := h.cache.Stats()
	for deadline := time.Now().Add(cfg.seconds - untracedFor); len(rounds) == 0 || time.Now().Before(deadline); {
		id := fmt.Sprintf("job%d", len(rounds))
		job := o.log.start("halo.job", id, -1)
		b, doWall, err := pairedBuild(h.pipeline, h.name, h.src, o.log, id, job)
		if !o.check(err) {
			o.log.end(job)
			continue
		}
		var lt layerTotals
		lt.add(b)
		rounds = append(rounds, lt)
		layerDo.addDur(b.doPhases, time.Millisecond)
		coldDo.addDur(doWall, time.Millisecond)
		ix := o.log.start("core.Do.warm", id, job)
		t1 := time.Now()
		wres, err := h.pipeline.Do(core.CompileRequest{Name: h.name, Source: h.src})
		warmD := time.Since(t1)
		o.log.end(ix)
		if err == nil && !wres.Hit {
			err = fmt.Errorf("halo: warm recompile missed the unit cache")
		}
		if !o.check(err) {
			o.log.end(job)
			continue
		}
		ix = o.log.start("cache.lookup", id, job)
		t1 = time.Now()
		h.cache.LookupUnit(wres.Key)
		lookups.addDur(time.Since(t1), time.Microsecond)
		o.log.end(ix)
		ecfg := earthsim.DefaultConfig(haloNodes)
		ecfg.SimWorkers = 1
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ix = o.log.start("earthsim.run", id, job)
		t1 = time.Now()
		res, err := earthsim.New(b.code, ecfg).Run()
		runD := time.Since(t1)
		o.log.end(ix)
		runtime.ReadMemStats(&ms1)
		o.log.end(job)
		if !o.check(err) || !o.check(h.check(res)) {
			continue
		}
		tracedJobs.addDur(b.wall+warmD+runD, time.Millisecond)
		nsEvent.add(float64(runD.Nanoseconds()) / float64(res.Events))
		allocs.add(float64(ms1.Mallocs - ms0.Mallocs))
		bytes.add(float64(ms1.TotalAlloc - ms0.TotalAlloc))
	}
	stats1 := h.cache.Stats()
	o.check(phaseSumCheck("halo-1024", layerDo, coldDo))
	compileLayerMetrics(m, rounds)
	m["earthsim.halo_ns_per_event"] = nsEvent.median()
	m["earthsim.allocs_per_run"] = allocs.median()
	m["earthsim.bytes_per_run"] = bytes.median()
	m["earthsim.guest_instructions"] = float64(c.instr)
	m["earthsim.events"] = float64(c.events)
	m["earthsim.sim_time_ns"] = float64(c.timeNs)
	m["earthsim.remote_ops"] = float64(c.remoteOps)
	hits, misses := stats1.Hits-stats0.Hits, stats1.Misses-stats0.Misses
	m["cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["cache.lookup_us"] = lookups.median()
	m["cache.func_reuse_ratio"] = ratio(float64(stats1.FuncsReused), float64(stats1.FuncsReused+stats1.FuncsRecompiled))
	m["trace.overhead_frac"] = tracedJobs.quantile(typicalQ)/job.median() - 1
	return o, nil
}
