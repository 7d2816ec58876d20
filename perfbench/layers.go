package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/commsel"
	"repro/internal/core"
	"repro/internal/earthc"
	"repro/internal/locality"
	"repro/internal/lower"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/pointsto"
	"repro/internal/rwsets"
	"repro/internal/sema"
	"repro/internal/simple"
	"repro/internal/threaded"
)

// compilePhases are the compile-layer steps in pipeline order, each named
// by the per-layer metric its time feeds. The first ten are what
// Pipeline.Do runs; threaded.generate is the code generation a unit's first
// Run performs.
var compilePhases = []string{
	"earthc.parse", "earthc.inline", "earthc.restructure",
	"sema.check", "lower.program",
	"pointsto.analyze", "rwsets.analyze", "locality.analyze",
	"placement.analyze", "commsel.transform",
	"threaded.generate",
}

// layerBuild is a program compiled by calling each layer's exported
// function directly, in the order Pipeline.Do calls them.
type layerBuild struct {
	code   *threaded.Program
	disasm string
	phases map[string]time.Duration
	// Size and decision counts (optimized builds only for the last five).
	tokens, basics       int
	readTuples, wrTuples int
	pipelined, blocked   int
	eliminated           int
	// doPhases sums the steps Pipeline.Do performs (all but codegen);
	// wall is the whole build, counting work between the steps.
	doPhases, wall time.Duration
}

// buildLayers compiles src the way a cache-less Pipeline with default
// options does (workers = GOMAXPROCS), timing each layer call inside a span
// under parent.
func buildLayers(name, src string, optimize bool, log *spanLog, id string, parent int) (b *layerBuild, err error) {
	start := time.Now()
	b = &layerBuild{phases: make(map[string]time.Duration, len(compilePhases))}
	step := func(phase string, f func() error) error {
		ix := log.start(phase, id, parent)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		log.end(ix)
		b.phases[phase] += d
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, fmt.Errorf("%s: layer build panicked: %v", name, r)
		}
	}()
	var (
		file *earthc.File
		sm   *sema.Program
		sp   *simple.Program
		pt   *pointsto.Result
		rw   *rwsets.Result
		loc  *locality.Result
		pl   *placement.Result
		rep  *commsel.Report
	)
	pool := par.New(0)
	type layerStep struct {
		phase string
		f     func() error
	}
	steps := []layerStep{
		{"earthc.parse", func() (err error) { file, err = earthc.ParseFile(name, src); return }},
		{"earthc.inline", func() error { earthc.InlineFunctions(file, earthc.InlineOptions{}); return nil }},
		{"earthc.restructure", func() error {
			for _, fn := range file.Funcs {
				if err := earthc.DesugarLoops(fn); err != nil {
					return err
				}
				if err := earthc.EliminateGotos(fn); err != nil {
					return err
				}
			}
			return nil
		}},
		{"sema.check", func() (err error) { sm, err = sema.Check(file); return }},
		{"lower.program", func() (err error) {
			sp, err = lower.Program(sm)
			if err == nil {
				simple.AssignSites(sp)
			}
			return
		}},
		{"pointsto.analyze", func() (err error) { pt, err = pointsto.AnalyzeP(sp, pool); return }},
		{"rwsets.analyze", func() error { rw = rwsets.AnalyzeP(sp, pt, pool); return nil }},
		{"locality.analyze", func() error { loc = locality.AnalyzeP(sp, pt, pool); return nil }},
	}
	if optimize {
		steps = append(steps,
			layerStep{"placement.analyze", func() error { pl = placement.AnalyzeProfiledP(sp, rw, loc, nil, pool); return nil }},
			layerStep{"commsel.transform", func() error { rep = commsel.TransformP(sp, pl, rw, loc, commsel.Options{}, pool); return nil }},
		)
	}
	for _, s := range steps {
		if err := step(s.phase, s.f); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", name, s.phase, err)
		}
		if s.phase == "lower.program" {
			// Size of the SIMPLE form as lowered, before selection rewrites it.
			for _, fn := range sp.Funcs {
				simple.WalkBasics(fn.Body, func(*simple.Basic) { b.basics++ })
			}
		}
	}
	for _, d := range b.phases {
		b.doPhases += d
	}
	if err := step("threaded.generate", func() (err error) {
		b.code, err = threaded.Generate(sp, loc, threaded.Options{})
		return
	}); err != nil {
		return nil, fmt.Errorf("%s: threaded.generate: %w", name, err)
	}
	toks, _ := earthc.Tokenize(src)
	b.tokens = len(toks)
	if optimize {
		for _, set := range pl.Reads {
			b.readTuples += set.Len()
		}
		for _, set := range pl.Writes {
			b.wrTuples += set.Len()
		}
		t := rep.Totals()
		b.pipelined = t.PipelinedReads + t.PipelinedWrites
		b.blocked = t.BlockedReads + t.BlockedWrites
		b.eliminated = t.ReadsEliminated
	}
	b.disasm = disasm(b.code)
	b.wall = time.Since(start)
	return b, nil
}

// pairedBuild compiles src twice, back to back: with a cold Pipeline.Do
// on p, then layer by layer with p's optimization setting. It fails unless
// both produce byte-identical threaded code, and returns the layer build
// with the Do's wall time, so the two times are taken under the same host
// conditions.
func pairedBuild(p *core.Pipeline, name, src string, log *spanLog, id string, parent int) (*layerBuild, time.Duration, error) {
	t0 := time.Now()
	res, err := p.Do(core.CompileRequest{Name: name, Source: src, Cache: core.CachePolicy{Bypass: true}})
	doWall := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	b, err := buildLayers(name, src, p.Options().Optimize, log, id, parent)
	if err != nil {
		return nil, 0, err
	}
	want, err := res.Unit.Disasm()
	if err != nil {
		return nil, 0, err
	}
	if want != b.disasm {
		return nil, 0, fmt.Errorf("%s: layer-built threaded code differs from Pipeline.Do's", name)
	}
	return b, doWall, nil
}

// phaseSumTolerance bounds how far the per-layer compile times may sum away
// from the Pipeline.Do wall time of the same source.
const phaseSumTolerance = 0.25

// phaseSumCheck compares the median round's layer-time sum with the median
// round's Do wall time (both in ms).
func phaseSumCheck(workload string, layerSum, doWall samples) error {
	l, d := layerSum.median(), doWall.median()
	if d <= 0 || l < d*(1-phaseSumTolerance) || l > d*(1+phaseSumTolerance) {
		return fmt.Errorf("%s: per-layer compile times sum to %.3f ms, Pipeline.Do took %.3f ms (tolerance %.0f%%)",
			workload, l, d, 100*phaseSumTolerance)
	}
	return nil
}

// disasm renders threaded code the way core.Unit.Disasm does: every
// function, sorted by name.
func disasm(tp *threaded.Program) string {
	names := make([]string, 0, len(tp.Funcs))
	for n := range tp.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		sb.WriteString(tp.Funcs[n].Disasm())
		sb.WriteString("\n")
	}
	return sb.String()
}

// layerTotals accumulates layer builds into per-layer metrics.
type layerTotals struct {
	phases               map[string]time.Duration
	tokens, basics       int
	readTuples, wrTuples int
	pipelined, blocked   int
	eliminated           int
}

func (t *layerTotals) add(b *layerBuild) {
	if t.phases == nil {
		t.phases = make(map[string]time.Duration)
	}
	for k, v := range b.phases {
		t.phases[k] += v
	}
	t.tokens += b.tokens
	t.basics += b.basics
	t.readTuples += b.readTuples
	t.wrTuples += b.wrTuples
	t.pipelined += b.pipelined
	t.blocked += b.blocked
	t.eliminated += b.eliminated
}

// report writes the compile-layer metrics: times are per round of builds
// (the median round's), counts are one round's totals.
func compileLayerMetrics(m map[string]float64, rounds []layerTotals) {
	for _, p := range compilePhases {
		var s samples
		for _, r := range rounds {
			s.addDur(r.phases[p], time.Millisecond)
		}
		m[p+"_ms"] = s.median()
	}
	if len(rounds) == 0 {
		return
	}
	r := rounds[0]
	m["earthc.tokens"] = float64(r.tokens)
	m["simple.basics"] = float64(r.basics)
	m["placement.read_tuples"] = float64(r.readTuples)
	m["placement.write_tuples"] = float64(r.wrTuples)
	m["commsel.pipelined"] = float64(r.pipelined)
	m["commsel.blocked"] = float64(r.blocked)
	m["commsel.eliminated"] = float64(r.eliminated)
}
