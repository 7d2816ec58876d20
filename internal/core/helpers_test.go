package core

import (
	"repro/internal/earthsim"
	"repro/internal/profile"
)

// Test shorthands over one-shot pipelines, replacing the removed deprecated
// free functions.

func compile(name, src string, opt Options) (*Unit, error) {
	cr, err := NewPipeline(opt).Do(CompileRequest{Name: name, Source: src})
	if err != nil {
		return nil, err
	}
	return cr.Unit, nil
}

// runUnit executes u on a plain (sink-free) pipeline; a compiled unit is
// self-contained, so any pipeline can run it.
func runUnit(u *Unit, rc RunConfig) (*earthsim.Result, error) {
	return NewPipeline(Options{}).Run(u, rc)
}

func compileAndRun(name, src string, optimize bool, nodes int) (*earthsim.Result, error) {
	p := NewPipeline(Options{Optimize: optimize})
	cr, err := p.Do(CompileRequest{Name: name, Source: src})
	if err != nil {
		return nil, err
	}
	u := cr.Unit
	return p.Run(u, RunConfig{Nodes: nodes})
}

func compileWithProfile(name, src string, opt Options, rc RunConfig) (*Unit, *profile.Data, error) {
	return NewPipeline(opt).ProfileCycle(name, src, rc)
}
