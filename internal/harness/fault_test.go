package harness

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/olden"
	"repro/internal/trace"
)

// quickFaultParams shrinks each benchmark to the smallest size that still
// exercises remote communication, so the fault tests stay fast under -race.
func quickFaultParams(bm *olden.Benchmark) olden.Params {
	p := bm.DefaultParams
	switch bm.Name {
	case "power":
		p.Size, p.Iters = 8, 2
	case "perimeter":
		p.Size = 5
	case "tsp":
		p.Size = 64
	case "health":
		p.Size, p.Iters = 3, 20
	case "voronoi":
		p.Size = 96
	}
	return p
}

const faultTestNodes = 4

func compileOlden(t *testing.T, bm *olden.Benchmark, opt core.Options) (*core.Pipeline, *core.Unit) {
	t.Helper()
	p := core.NewPipeline(opt)
	cr, err := p.Do(core.CompileRequest{Name: bm.Name + ".ec", Source: bm.Source(quickFaultParams(bm))})
	if err != nil {
		t.Fatalf("%s: %v", bm.Name, err)
	}
	u := cr.Unit
	return p, u
}

func faultRun(t *testing.T, p *core.Pipeline, u *core.Unit, fc *earthsim.FaultConfig) *earthsim.Result {
	t.Helper()
	r, err := p.Run(u, core.RunConfig{Nodes: faultTestNodes, Faults: fc,
		Fuel: defaultFuel, Deadline: defaultDeadline})
	if err != nil {
		t.Fatalf("run (faults %s): %v", fc, err)
	}
	return r
}

// TestFaultDeterminism: identical seed + spec must give bit-identical runs —
// same simulated time, same program-visible result, same fault counters, and
// a byte-identical trace export.
func TestFaultDeterminism(t *testing.T) {
	bm := olden.ByName("power")
	fc, err := earthsim.ParseFaultSpec("drop=0.05,dup=0.01,delay=3,seed=7")
	if err != nil {
		t.Fatal(err)
	}

	run := func() (*earthsim.Result, []byte) {
		rec := trace.NewRecorder(faultTestNodes)
		p, u := compileOlden(t, bm, core.Options{Optimize: true, Trace: rec})
		r := faultRun(t, p, u, fc)
		var buf bytes.Buffer
		if err := rec.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	r1, t1 := run()
	r2, t2 := run()

	if r1.Time != r2.Time {
		t.Errorf("simulated time differs across identical seeds: %d vs %d", r1.Time, r2.Time)
	}
	if r1.Visible() != r2.Visible() {
		t.Errorf("visible result differs:\n%s\n%s", r1.Visible(), r2.Visible())
	}
	if s1, s2 := r1.Faults.String(), r2.Faults.String(); s1 != s2 {
		t.Errorf("fault counters differ:\n%s\n%s", s1, s2)
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("trace export differs across identical seeds (%d vs %d bytes)", len(t1), len(t2))
	}
}

// TestFaultVisibleEquivalence: across all five benchmarks and two different
// seeds, every faulty run must complete (via retries) with a program-visible
// Result identical to the fault-free run — faults may change timing, never
// semantics.
func TestFaultVisibleEquivalence(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, bm := range olden.All() {
		p, u := compileOlden(t, bm, core.Options{Optimize: true})
		base := faultRun(t, p, u, nil)
		for _, seed := range seeds {
			fc := &earthsim.FaultConfig{Drop: 0.05, Dup: 0.01, Seed: seed}
			r := faultRun(t, p, u, fc)
			if got, want := r.Visible(), base.Visible(); got != want {
				t.Errorf("%s seed=%d: visible result diverged under faults\n got %s\nwant %s",
					bm.Name, seed, got, want)
			}
			if r.Faults == nil || r.Faults.Drops == 0 || r.Faults.Retries == 0 {
				t.Errorf("%s seed=%d: expected injected drops and retries, got %v",
					bm.Name, seed, r.Faults)
			}
		}
	}
}
