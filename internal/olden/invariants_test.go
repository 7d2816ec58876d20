package olden

import (
	"testing"

	"repro/internal/core"
	"repro/internal/simple"
)

// TestOneRemoteOpInvariant: after optimization, every basic statement in
// every benchmark still contains at most one indirect memory operation (the
// SIMPLE property the paper's analysis depends on).
func TestOneRemoteOpInvariant(t *testing.T) {
	for _, b := range All() {
		src := b.Source(small(b))
		cr, err := core.NewPipeline(core.Options{Optimize: true}).Do(core.CompileRequest{Name: b.Name + ".ec", Source: src})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		u := cr.Unit
		for _, fn := range u.Simple.Funcs {
			simple.WalkBasics(fn.Body, func(bb *simple.Basic) {
				n := 0
				switch bb.Kind {
				case simple.KAssign:
					if _, ok := bb.Rhs.(simple.LoadRV); ok {
						n++
					}
					if _, ok := bb.Lhs.(simple.StoreLV); ok {
						n++
					}
				case simple.KBlkCopy:
					if bb.P != nil {
						n++
					}
					if bb.P2 != nil {
						n++
					}
				case simple.KGetF, simple.KPutF, simple.KBlkRead, simple.KBlkWrite:
					n++
				}
				if n > 1 {
					t.Errorf("%s/%s S%d: %d indirect ops in one basic statement: %s",
						b.Name, fn.Name, bb.Label, n, simple.BasicText(bb))
				}
			})
		}
	}
}

// TestLabelsStayConsistent: communication selection inserts statements; the
// label index must still resolve every walked basic.
func TestLabelsStayConsistent(t *testing.T) {
	for _, b := range All() {
		src := b.Source(small(b))
		cr, err := core.NewPipeline(core.Options{Optimize: true}).Do(core.CompileRequest{Name: b.Name + ".ec", Source: src})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		u := cr.Unit
		for _, fn := range u.Simple.Funcs {
			simple.WalkBasics(fn.Body, func(bb *simple.Basic) {
				if bb.Label < 0 || bb.Label >= len(fn.Basics) {
					t.Errorf("%s/%s: label S%d out of range", b.Name, fn.Name, bb.Label)
					return
				}
				if fn.Basics[bb.Label] != bb {
					t.Errorf("%s/%s: label S%d does not resolve to its statement",
						b.Name, fn.Name, bb.Label)
				}
			})
		}
	}
}

// TestReorderFieldsOnBenchmarks: the field-reordering extension must
// preserve every benchmark's output.
func TestReorderFieldsOnBenchmarks(t *testing.T) {
	for _, b := range All() {
		src := b.Source(small(b))
		plain, err := pipelineRun(b.Name+".ec", src, true, 2)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		p := core.NewPipeline(core.Options{Optimize: true, ReorderFields: true})
		cr, err := p.Do(core.CompileRequest{Name: b.Name + ".ec", Source: src})
		if err != nil {
			t.Fatalf("%s reorder: %v", b.Name, err)
		}
		u := cr.Unit
		res, err := p.Run(u, core.RunConfig{Nodes: 2})
		if err != nil {
			t.Fatalf("%s reorder run: %v", b.Name, err)
		}
		if res.Output != plain.Output {
			t.Errorf("%s: field reordering changed output: %q vs %q",
				b.Name, res.Output, plain.Output)
		}
	}
}

// TestBenchmarkReportsNonTrivial: the optimizer must actually do something
// on every benchmark (communication statements inserted, loads redirected).
func TestBenchmarkReportsNonTrivial(t *testing.T) {
	for _, b := range All() {
		src := b.Source(small(b))
		cr, err := core.NewPipeline(core.Options{Optimize: true}).Do(core.CompileRequest{Name: b.Name + ".ec", Source: src})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		u := cr.Unit
		tot := u.Report.Totals()
		if tot.PipelinedReads+tot.BlockedReads == 0 {
			t.Errorf("%s: no reads selected at all", b.Name)
		}
		if tot.ReadsRewritten == 0 {
			t.Errorf("%s: no loads redirected", b.Name)
		}
	}
}
