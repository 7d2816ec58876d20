package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/olden"
	"repro/internal/threaded"
)

// paperNodes are the machine sizes every paper build runs at.
var paperNodes = []int{4, 16}

// paperProgram is one Olden program at the size a seed picked.
type paperProgram struct {
	bm     *olden.Benchmark
	params olden.Params
	name   string
	src    string
}

// paperSizes picks tsp's and voronoi's sizes from a narrow band (±1.5%)
// around their defaults. The other programs' knobs are too coarse for a
// narrow band (one step of power's laterals or health's iterations is 6-8%
// of the work, one step of perimeter's depth quadruples it), so they stay at
// their defaults.
func paperSizes(cfg runConfig) []paperProgram {
	r := cfg.rng(1)
	var progs []paperProgram
	for _, bm := range olden.All() {
		p := bm.DefaultParams
		if bm.Name == "tsp" || bm.Name == "voronoi" {
			p.Size += r.IntN(2*(p.Size/64)+1) - p.Size/64
		}
		progs = append(progs, paperProgram{bm: bm, params: p, name: bm.Name + ".ec", src: bm.Source(p)})
	}
	return progs
}

// paperCell is one (build, nodes) run of a program.
type paperCell struct {
	opt   bool
	nodes int
}

func (c paperCell) String() string {
	b := "simple"
	if c.opt {
		b = "opt"
	}
	return fmt.Sprintf("%s/%d", b, c.nodes)
}

// cellCounts are the quantities that must repeat exactly from pass to pass.
type cellCounts struct {
	instr, events, timeNs, remoteOps int64
}

func countsOf(r *earthsim.Result) cellCounts {
	return cellCounts{r.Counts.Instructions, r.Events, r.Time, r.Counts.TotalRemote()}
}

type paperState struct {
	progs  []paperProgram
	cache  *cache.Cache
	simple *core.Pipeline
	opt    *core.Pipeline
}

func paperSetup(cfg runConfig) (*paperState, error) {
	st := &paperState{progs: paperSizes(cfg), cache: cache.New(cache.DefaultCapacity, "")}
	st.simple = core.NewPipeline(core.Options{Cache: st.cache})
	st.opt = core.NewPipeline(core.Options{Optimize: true, Cache: st.cache})
	for _, p := range st.progs {
		if _, err := st.simple.Do(core.CompileRequest{Name: p.name, Source: p.src}); err != nil {
			return nil, err
		}
		// Leaves the optimized unit in the cache for the warm recompiles.
		if _, err := st.opt.Do(core.CompileRequest{Name: p.name, Source: p.src}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// paperPass accumulates one pass over every program.
type paperPass struct {
	wall   time.Duration
	layers layerTotals
	coldDo time.Duration // cold Pipeline.Do time
	// Traced-run simulator figures.
	instrNs, instrCount float64 // power and perimeter
	eventNs, eventCount float64 // tsp and voronoi
	allocs, bytes, runs float64
	totals              cellCounts
}

type paperRun struct {
	cfg    runConfig
	st     *paperState
	o      *outcome
	passes int
	// digest is the first pass's counts per cell; visible its Visible().
	digest  map[string]cellCounts
	visible map[string]string
	// Untraced samples: cold compiles per program and build, warm
	// recompiles and rows per program, runs per cell.
	cold, warm, runs, jobs cells
	lookups                samples
}

func runPaper(cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg)
	st, setupS, err := repeatSetup(setupRepeats, func() (*paperState, error) { return paperSetup(cfg) })
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupS
	pr := &paperRun{cfg: cfg, st: st, o: o, digest: make(map[string]cellCounts),
		visible: make(map[string]string), cold: cells{}, warm: cells{}, runs: cells{}, jobs: cells{}}
	for _, p := range st.progs {
		fmt.Fprintf(cfg.out, "program: %s size=%d iters=%d\n", p.bm.Name, p.params.Size, p.params.Iters)
	}
	untracedFor := cfg.seconds
	if cfg.trace {
		untracedFor = cfg.seconds / 2
	}
	r := cfg.rng(2)
	var untraced []paperPass
	for deadline := time.Now().Add(untracedFor); len(untraced) == 0 || time.Now().Before(deadline); {
		untraced = append(untraced, pr.pass(r, false))
	}
	var passS samples
	for _, p := range untraced {
		passS.addDur(p.wall, time.Second)
	}
	pr.printDigest(len(untraced))
	// A pass at every cell's typical cost; the instruction and event totals
	// are the same in every pass.
	passMs, runMs := pr.jobs.total(), pr.runs.total()
	fmt.Fprintf(cfg.out, "pass_s: typical %.4f, median %.4f over %d passes\n", passMs/1e3, passS.median(), len(untraced))
	for _, p := range st.progs {
		j := pr.jobs[p.bm.Name]
		fmt.Fprintf(cfg.out, "row: %-9s typical %8.2f ms, median %8.2f ms\n", p.bm.Name, j.quantile(typicalQ), j.median())
	}
	m := o.metrics
	jobs, cold, runs := pr.jobs.typical(), pr.cold.typical(), pr.runs.typical()
	m["job_p50_ms"] = jobs.median()
	m["job_p99_ms"] = jobs.quantile(0.99)
	m["jobs_per_s"] = float64(len(st.progs)) / passMs * 1e3
	m["compile_cold_ms"] = cold.median()
	m["compile_cold_p90_ms"] = cold.quantile(0.9)
	m["compile_warm_us"] = pr.warm.typical().median()
	m["run_ms"] = runs.median()
	m["run_p90_ms"] = runs.quantile(0.9)
	m["guest_mips"] = float64(untraced[0].totals.instr) / runMs / 1e3
	m["mevents_per_s"] = float64(untraced[0].totals.events) / runMs / 1e3
	fmt.Fprintf(cfg.out, "samples: jobs=%d cold_compiles=%d warm_compiles=%d runs=%d\n",
		pr.jobs.count(), pr.cold.count(), pr.warm.count(), pr.runs.count())
	if !cfg.trace {
		return o, nil
	}

	stats0 := st.cache.Stats()
	var traced []paperPass
	for deadline := time.Now().Add(cfg.seconds - untracedFor); len(traced) == 0 || time.Now().Before(deadline); {
		traced = append(traced, pr.pass(r, true))
	}
	stats1 := st.cache.Stats()
	var rounds []layerTotals
	var tracedS, coldDo, layerDo, nsInstr, nsEvent, allocs, bytes samples
	for _, p := range traced {
		rounds = append(rounds, p.layers)
		tracedS.addDur(p.wall, time.Second)
		var doSum time.Duration
		for _, ph := range compilePhases[:len(compilePhases)-1] {
			doSum += p.layers.phases[ph]
		}
		layerDo.addDur(doSum, time.Millisecond)
		coldDo.addDur(p.coldDo, time.Millisecond)
		nsInstr.add(p.instrNs / p.instrCount)
		nsEvent.add(p.eventNs / p.eventCount)
		allocs.add(p.allocs / p.runs)
		bytes.add(p.bytes / p.runs)
	}
	o.check(phaseSumCheck("paper", layerDo, coldDo))
	compileLayerMetrics(m, rounds)
	m["earthsim.ns_per_instr"] = nsInstr.median()
	m["earthsim.ns_per_event"] = nsEvent.median()
	m["earthsim.allocs_per_run"] = allocs.median()
	m["earthsim.bytes_per_run"] = bytes.median()
	t := traced[0].totals
	m["earthsim.guest_instructions"] = float64(t.instr)
	m["earthsim.events"] = float64(t.events)
	m["earthsim.sim_time_ns"] = float64(t.timeNs)
	m["earthsim.remote_ops"] = float64(t.remoteOps)
	hits, misses := stats1.Hits-stats0.Hits, stats1.Misses-stats0.Misses
	m["cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["cache.lookup_us"] = pr.lookups.median()
	reused := stats1.FuncsReused
	m["cache.func_reuse_ratio"] = ratio(float64(reused), float64(reused+stats1.FuncsRecompiled))
	m["trace.overhead_frac"] = tracedS.median()/passS.median() - 1
	return o, nil
}

// pass runs every program once, in an order the seed picks: cold simple and
// optimized compiles, one warm recompile, and the four runs. Checks happen
// outside the timed sections.
func (pr *paperRun) pass(r *rand.Rand, traced bool) paperPass {
	var pp paperPass
	cells := []paperCell{{false, 4}, {false, 16}, {true, 4}, {true, 16}}
	pr.passes++
	for _, i := range r.Perm(len(pr.st.progs)) {
		p := pr.st.progs[i]
		pr.o.probeHost(1)
		id := fmt.Sprintf("pass%d/%s", pr.passes, p.bm.Name)
		job := pr.o.log.start("paper.job", id, -1)
		jobTime, ok := time.Duration(0), true
		units := map[bool]*core.Unit{}
		code := map[bool]*threaded.Program{}
		for _, opt := range []bool{false, true} {
			pl := pr.st.simple
			if opt {
				pl = pr.st.opt
			}
			t0 := time.Now()
			var err error
			if traced {
				var b *layerBuild
				var doWall time.Duration
				if b, doWall, err = pairedBuild(pl, p.name, p.src, pr.o.log, id, job); err == nil {
					// The job is charged the layer build, not the paired Do.
					jobTime += b.wall
					pp.coldDo += doWall
					pp.layers.add(b)
					code[opt] = b.code
				}
			} else {
				var res *core.CompileResult
				res, err = pl.Do(core.CompileRequest{Name: p.name, Source: p.src, Cache: core.CachePolicy{Bypass: true}})
				d := time.Since(t0)
				if err == nil {
					pr.cold.addDur(fmt.Sprintf("%s/%t", p.bm.Name, opt), d, time.Millisecond)
					pp.coldDo += d
					t1 := time.Now()
					// Code generation is part of the job, but neither of
					// the compile nor of the run.
					_, err = res.Unit.Threaded(threaded.Options{})
					jobTime += d + time.Since(t1)
					units[opt] = res.Unit
				}
			}
			ok = pr.o.check(err) && ok
		}
		// Warm recompile: a whole-unit cache hit.
		ix := pr.o.log.start("core.Do.warm", id, job)
		t0 := time.Now()
		res, err := pr.st.opt.Do(core.CompileRequest{Name: p.name, Source: p.src})
		d := time.Since(t0)
		pr.o.log.end(ix)
		jobTime += d
		if err == nil && !res.Hit {
			err = fmt.Errorf("%s: warm recompile missed the unit cache", p.bm.Name)
		}
		if pr.o.check(err) {
			if !traced {
				pr.warm.addDur(p.bm.Name, d, time.Microsecond)
			} else {
				ix := pr.o.log.start("cache.lookup", id, job)
				t1 := time.Now()
				_, hit := pr.st.cache.LookupUnit(res.Key)
				pr.lookups.addDur(time.Since(t1), time.Microsecond)
				pr.o.log.end(ix)
				if !hit {
					pr.o.check(fmt.Errorf("%s: direct cache lookup missed", p.bm.Name))
				}
			}
		}
		if !ok {
			pr.o.log.end(job)
			continue
		}
		outs := map[paperCell]*earthsim.Result{}
		for _, ci := range r.Perm(len(cells)) {
			c := cells[ci]
			key := p.bm.Name + "/" + c.String()
			ix := pr.o.log.start("earthsim.run", key, job)
			var ms0, ms1 runtime.MemStats
			if traced {
				runtime.ReadMemStats(&ms0)
			}
			t0 := time.Now()
			var res *earthsim.Result
			var err error
			if traced {
				res, err = earthsim.New(code[c.opt], earthsim.DefaultConfig(c.nodes)).Run()
			} else {
				res, err = pr.st.simple.Run(units[c.opt], core.RunConfig{Nodes: c.nodes})
			}
			d := time.Since(t0)
			if traced {
				runtime.ReadMemStats(&ms1)
			}
			pr.o.log.end(ix)
			jobTime += d
			if !pr.o.check(err) {
				continue
			}
			outs[c] = res
			cc := countsOf(res)
			pp.totals.instr += cc.instr
			pp.totals.events += cc.events
			pp.totals.timeNs += cc.timeNs
			pp.totals.remoteOps += cc.remoteOps
			if traced {
				switch p.bm.Name {
				case "power", "perimeter":
					pp.instrNs += float64(d.Nanoseconds())
					pp.instrCount += float64(res.Counts.Instructions)
				case "tsp", "voronoi":
					pp.eventNs += float64(d.Nanoseconds())
					pp.eventCount += float64(res.Events)
				}
				pp.allocs += float64(ms1.Mallocs - ms0.Mallocs)
				pp.bytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
				pp.runs++
			} else {
				pr.runs.addDur(key, d, time.Millisecond)
			}
		}
		pr.o.log.end(job)
		pp.wall += jobTime
		if !traced {
			pr.jobs.addDur(p.bm.Name, jobTime, time.Millisecond)
		}
		pr.checkCells(p, outs, traced)
	}
	return pp
}

// checkCells checks one program's runs: every optimized output against
// its simple build at the same size, the oracle where the program has one,
// the exact counts against the first pass, and (traced) the Visible()
// output of the layer-built program against the Pipeline-built one.
func (pr *paperRun) checkCells(p paperProgram, outs map[paperCell]*earthsim.Result, traced bool) {
	for c, res := range outs {
		key := p.bm.Name + "/" + c.String()
		var err error
		if c.opt {
			if s := outs[paperCell{false, c.nodes}]; s != nil && (s.Output != res.Output || s.MainRet != res.MainRet) {
				err = fmt.Errorf("%s: optimized output %q ret %d differs from simple %q ret %d",
					key, res.Output, res.MainRet, s.Output, s.MainRet)
			}
		}
		if err == nil {
			err = oracleCheck(p.bm.Name, p.params.Size, p.params.Iters, c.nodes, res.Output)
		}
		if err == nil {
			cc := countsOf(res)
			if want, seen := pr.digest[key]; !seen {
				pr.digest[key] = cc
			} else if cc != want {
				err = fmt.Errorf("%s: counts %+v differ from the first pass's %+v", key, cc, want)
			}
		}
		if err == nil {
			if want, seen := pr.visible[key]; !seen {
				pr.visible[key] = res.Visible()
			} else if traced && res.Visible() != want {
				err = fmt.Errorf("%s: layer-built Visible() %q differs from Pipeline-built %q", key, res.Visible(), want)
			}
		}
		pr.o.check(err)
	}
}

// printDigest prints the exact counts of every cell, the rows of Table III
// (simulated times) and Figure 10 (remote operations).
func (pr *paperRun) printDigest(passes int) {
	for _, p := range pr.st.progs {
		for _, n := range paperNodes {
			s := pr.digest[fmt.Sprintf("%s/simple/%d", p.bm.Name, n)]
			o := pr.digest[fmt.Sprintf("%s/opt/%d", p.bm.Name, n)]
			fmt.Fprintf(pr.cfg.out, "digest: %-9s nodes=%-2d simple[instr=%d events=%d time_ns=%d remote_ops=%d] opt[instr=%d events=%d time_ns=%d opt_ops=%d] impr=%.2f%%\n",
				p.bm.Name, n, s.instr, s.events, s.timeNs, s.remoteOps, o.instr, o.events, o.timeNs, o.remoteOps,
				100*(1-float64(o.timeNs)/float64(s.timeNs)))
		}
	}
	fmt.Fprintf(pr.cfg.out, "digest: every cell's counts checked identical across %d passes\n", passes)
}
