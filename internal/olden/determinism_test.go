package olden

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/commsel"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/threaded"
)

// disasmAll renders the threaded code of every function in deterministic
// name order — the byte-level fingerprint of a compile.
func disasmAll(t *testing.T, u *core.Unit) string {
	t.Helper()
	tp, err := u.Threaded(threaded.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(tp.Funcs))
	for n := range tp.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	var out string
	for _, n := range names {
		out += tp.Funcs[n].Disasm() + "\n"
	}
	return out
}

// sameResult compares the observable fields of two simulator results.
func sameResult(a, b *earthsim.Result) bool {
	return a.Time == b.Time && a.Counts == b.Counts &&
		a.Output == b.Output && a.MainRet == b.MainRet
}

// TestWorkerCountDeterminism is the contract behind Options.Workers: for
// every Olden benchmark, a parallel compile (Workers=8) must produce
// byte-identical threaded code, an identical selection report, and an
// identical simulated result to a sequential compile (Workers=1).
func TestWorkerCountDeterminism(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src := b.Source(small(b))
			var refCode string
			var refTotals commsel.FuncReport
			var refRes *earthsim.Result
			for _, workers := range []int{1, 8} {
				p := core.NewPipeline(core.Options{Optimize: true, Workers: workers})
				cr, err := p.Do(core.CompileRequest{Name: b.Name + ".ec", Source: src})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				u := cr.Unit
				code := disasmAll(t, u)
				totals := u.Report.Totals()
				res, err := p.Run(u, core.RunConfig{Nodes: 4})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if workers == 1 {
					refCode, refTotals, refRes = code, totals, res
					continue
				}
				if code != refCode {
					t.Errorf("workers=%d: threaded code differs from workers=1", workers)
				}
				if totals != refTotals {
					t.Errorf("workers=%d: report totals %+v != %+v", workers, totals, refTotals)
				}
				if !sameResult(res, refRes) {
					t.Errorf("workers=%d: simulated result differs: %+v != %+v",
						workers, res, refRes)
				}
			}
		})
	}
}

// TestSharedPipelineConcurrency drives one Pipeline — and one compiled
// Unit — from 8 goroutines at once: concurrent Compiles of the same
// source must agree with a sequential reference, and concurrent Runs of
// the shared unit must all return the same result. Run under -race by
// scripts/check.sh.
func TestSharedPipelineConcurrency(t *testing.T) {
	b := ByName("power")
	src := b.Source(small(b))
	p := core.NewPipeline(core.Options{Optimize: true})

	cr, err := p.Do(core.CompileRequest{Name: b.Name + ".ec", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	refU := cr.Unit
	refCode := disasmAll(t, refU)
	refRes, err := p.Run(refU, core.RunConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*goroutines)
	codes := make([]string, goroutines)
	results := make([]*earthsim.Result, goroutines)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cr, err := p.Do(core.CompileRequest{Name: b.Name + ".ec", Source: src})
			if err != nil {
				errs <- err
				return
			}
			u := cr.Unit
			codes[i] = disasmAll(t, u)
			// Exercise the shared unit's cached threaded code from all
			// goroutines at once.
			res, err := p.Run(refU, core.RunConfig{Nodes: 4})
			if err != nil {
				errs <- err
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < goroutines; i++ {
		if codes[i] != refCode {
			t.Errorf("goroutine %d: concurrent compile produced different threaded code", i)
		}
		if !sameResult(results[i], refRes) {
			t.Errorf("goroutine %d: concurrent run result differs: %+v != %+v",
				i, results[i], refRes)
		}
	}
}
