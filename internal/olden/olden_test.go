package olden

import (
	"testing"

	"repro/internal/core"
	"repro/internal/earthsim"
)

// TestBenchmarksCompile checks every benchmark parses, checks, lowers, and
// optimizes without error.
func TestBenchmarksCompile(t *testing.T) {
	for _, b := range All() {
		src := b.Source(b.DefaultParams)
		for _, optimize := range []bool{false, true} {
			_, err := core.NewPipeline(core.Options{Optimize: optimize}).Do(core.CompileRequest{Name: b.Name + ".ec", Source: src})
			if err != nil {
				t.Errorf("%s (optimize=%v): %v", b.Name, optimize, err)
			}
		}
	}
}

// pipelineRun compiles src through a fresh pipeline and runs it on the
// given machine size; the common path of the semantic tests here.
func pipelineRun(name, src string, optimize bool, nodes int) (*earthsim.Result, error) {
	p := core.NewPipeline(core.Options{Optimize: optimize})
	cr, err := p.Do(core.CompileRequest{Name: name, Source: src})
	if err != nil {
		return nil, err
	}
	u := cr.Unit
	return p.Run(u, core.RunConfig{Nodes: nodes})
}

// small returns reduced parameters for quick semantic runs.
func small(b *Benchmark) Params {
	p := b.DefaultParams
	switch b.Name {
	case "power":
		p.Size, p.Iters = 4, 2
	case "perimeter":
		p.Size = 4
	case "tsp":
		p.Size = 32
	case "health":
		p.Size, p.Iters = 3, 20
	case "voronoi":
		p.Size = 48
	}
	return p
}

// TestBenchmarksRun runs every benchmark on 1 and 4 nodes, simple and
// optimized, and demands identical program output across all four runs —
// the communication optimization must be semantics-preserving, and the
// machine size must not affect results.
func TestBenchmarksRun(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src := b.Source(small(b))
			var ref string
			first := true
			for _, nodes := range []int{1, 4} {
				for _, optimize := range []bool{false, true} {
					p := core.NewPipeline(core.Options{Optimize: optimize})
					cr, err := p.Do(core.CompileRequest{Name: b.Name + ".ec", Source: src})
					if err != nil {
						t.Fatalf("%s nodes=%d optimize=%v: %v", b.Name, nodes, optimize, err)
					}
					u := cr.Unit
					res, err := p.Run(u, core.RunConfig{Nodes: nodes})
					if err != nil {
						t.Fatalf("%s nodes=%d optimize=%v: %v", b.Name, nodes, optimize, err)
					}
					if first {
						ref = res.Output
						first = false
						t.Logf("output:\n%s", res.Output)
					} else if res.Output != ref {
						t.Errorf("%s nodes=%d optimize=%v: output %q != reference %q",
							b.Name, nodes, optimize, res.Output, ref)
					}
				}
			}
		})
	}
}

// TestSequentialBaseline checks the sequential build runs and agrees with
// the parallel builds.
func TestSequentialBaseline(t *testing.T) {
	for _, b := range All() {
		src := b.Source(small(b))
		p := core.NewPipeline(core.Options{})
		cr, err := p.Do(core.CompileRequest{Name: b.Name + ".ec", Source: src})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		u := cr.Unit
		seq, err := p.Run(u, core.RunConfig{Nodes: 1, Sequential: true})
		if err != nil {
			t.Fatalf("%s sequential: %v", b.Name, err)
		}
		par, err := p.Run(u, core.RunConfig{Nodes: 1})
		if err != nil {
			t.Fatalf("%s parallel: %v", b.Name, err)
		}
		if seq.Output != par.Output {
			t.Errorf("%s: sequential output %q != parallel %q", b.Name, seq.Output, par.Output)
		}
		if seq.Time >= par.Time {
			t.Logf("note: %s sequential (%dns) not faster than 1-node parallel (%dns)",
				b.Name, seq.Time, par.Time)
		}
	}
}
