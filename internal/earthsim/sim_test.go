package earthsim_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/earthsim"
)

func run(t *testing.T, src string, nodes int, optimize bool) *earthsim.Result {
	t.Helper()
	p := core.NewPipeline(core.Options{Optimize: optimize})
	cr, err := p.Do(core.CompileRequest{Name: "t.ec", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	res, err := p.Run(u, core.RunConfig{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runErr(t *testing.T, src string, nodes int) error {
	t.Helper()
	p := core.NewPipeline(core.Options{})
	cr, err := p.Do(core.CompileRequest{Name: "t.ec", Source: src})
	if err != nil {
		return err
	}
	u := cr.Unit
	_, err = p.Run(u, core.RunConfig{Nodes: nodes})
	return err
}

func TestArithmeticSemantics(t *testing.T) {
	res := run(t, `
int main() {
	int a;
	double d;
	a = (7 * 3 - 1) / 2 % 7;     // 20/2=10, 10%7=3
	d = 1.5 * 4.0 + dbl(a);      // 9.0
	a = a + trunc(d) + (1 << 4) + (65 >> 2) + (6 & 3) + (6 | 1) + (6 ^ 3);
	// 3 + 9 + 16 + 16 + 2 + 7 + 5 = 58
	print_int(a);
	return a;
}
`, 1, false)
	if res.MainRet != 58 {
		t.Errorf("got %d want 58 (output %q)", res.MainRet, res.Output)
	}
}

func TestFloatComparisons(t *testing.T) {
	res := run(t, `
int main() {
	double a;
	double b;
	int r;
	a = 1.5;
	b = 2.5;
	r = 0;
	if (a < b) r = r + 1;
	if (b >= a) r = r + 2;
	if (a == 1.5) r = r + 4;
	if (a != b) r = r + 8;
	if (sqrt(16.0) == 4.0) r = r + 16;
	if (fabs(0.0 - 3.0) == 3.0) r = r + 32;
	return r;
}
`, 1, false)
	if res.MainRet != 63 {
		t.Errorf("got %d want 63", res.MainRet)
	}
}

func TestDivisionByZeroTraps(t *testing.T) {
	err := runErr(t, `
int main() {
	int x;
	int y;
	x = 1;
	y = 0;
	return x / y;
}
`, 1)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("expected a division-by-zero trap, got %v", err)
	}
}

func TestNullDereferenceTraps(t *testing.T) {
	err := runErr(t, `
struct P { int a; };
int main() {
	P *p;
	p = NULL;
	return p->a;
}
`, 1)
	if err == nil || !strings.Contains(err.Error(), "null") {
		t.Errorf("expected a null-pointer trap, got %v", err)
	}
}

func TestRecursionAndCallStack(t *testing.T) {
	res := run(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main() { return fib(15); }
`, 1, false)
	if res.MainRet != 610 {
		t.Errorf("fib(15) = %d, want 610", res.MainRet)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
struct C { int v; struct C *next; };
int main() {
	shared int total;
	C *head;
	C *p;
	int i;
	head = NULL;
	writeto(&total, 0);
	for (i = 0; i < 30; i++) {
		p = alloc_on(C, i % num_nodes());
		p->v = i;
		p->next = head;
		head = p;
	}
	forall (p = head; p != NULL; p = p->next) {
		addto(&total, p->v);
	}
	return valueof(&total);
}
`
	a := run(t, src, 4, true)
	b := run(t, src, 4, true)
	if a.Time != b.Time || a.MainRet != b.MainRet ||
		a.Counts != b.Counts {
		t.Errorf("simulation is not deterministic: %v/%v vs %v/%v",
			a.Time, a.MainRet, b.Time, b.MainRet)
	}
}

func TestRemoteOpsCostMoreThanLocal(t *testing.T) {
	src := `
struct P { int a; };
int main() {
	P *p;
	int i;
	int s;
	p = alloc_on(P, num_nodes() - 1);
	p->a = 3;
	s = 0;
	for (i = 0; i < 50; i++) s = s + p->a;
	return s;
}
`
	local := run(t, src, 1, false)
	remote := run(t, src, 2, false)
	if local.MainRet != remote.MainRet {
		t.Fatalf("results differ: %d vs %d", local.MainRet, remote.MainRet)
	}
	if remote.Time <= local.Time {
		t.Errorf("remote run (%d ns) should cost more than the 1-node run (%d ns)",
			remote.Time, local.Time)
	}
	if remote.Counts.RemoteReads == 0 {
		t.Error("2-node run should issue remote reads")
	}
	if local.Counts.RemoteReads != 0 {
		t.Error("1-node run should have no remote reads")
	}
}

func TestSharedAtomicityUnderContention(t *testing.T) {
	// 4 nodes x 25 concurrent increments must not lose updates.
	res := run(t, `
struct W { int id; struct W *next; };
int main() {
	shared int c;
	W *head;
	W *p;
	int i;
	writeto(&c, 0);
	head = NULL;
	for (i = 0; i < 100; i++) {
		p = alloc_on(W, i % num_nodes());
		p->next = head;
		head = p;
	}
	forall (p = head; p != NULL; p = p->next) {
		addto(&c, 1);
	}
	return valueof(&c);
}
`, 4, false)
	if res.MainRet != 100 {
		t.Errorf("lost shared updates: got %d want 100", res.MainRet)
	}
}

func TestParSeqJoinSemantics(t *testing.T) {
	res := run(t, `
int slowsum(int n) {
	int s;
	int i;
	s = 0;
	for (i = 0; i < n; i++) s = s + i;
	return s;
}
int main() {
	int a;
	int b;
	int c;
	{^
		a = slowsum(10);
		b = slowsum(20);
		c = slowsum(30);
	^}
	return a + b + c;
}
`, 2, false)
	want := int64(45 + 190 + 435)
	if res.MainRet != want {
		t.Errorf("par-seq join: got %d want %d", res.MainRet, want)
	}
}

func TestPlacedCallOnRemoteNode(t *testing.T) {
	res := run(t, `
int whereami() { return my_node(); }
int main() {
	int here;
	int there;
	here = whereami();
	there = whereami()@ON(1);
	return here * 10 + there;
}
`, 2, false)
	if res.MainRet != 1 {
		t.Errorf("placed call should run on node 1: got %d want 1", res.MainRet)
	}
}

func TestOwnerOf(t *testing.T) {
	res := run(t, `
struct P { int a; };
int main() {
	P *p;
	P *q;
	p = alloc(P);
	q = alloc_on(P, 1);
	return owner_of(p) * 10 + owner_of(q);
}
`, 2, false)
	if res.MainRet != 1 {
		t.Errorf("owner_of: got %d want 1", res.MainRet)
	}
}

func TestSequentialModeMatchesParallel(t *testing.T) {
	src := `
struct N { int v; struct N *next; };
int main() {
	N *h;
	N *p;
	int i;
	int s;
	h = NULL;
	for (i = 0; i < 10; i++) {
		p = alloc(N);
		p->v = i * i;
		p->next = h;
		h = p;
	}
	s = 0;
	p = h;
	while (p != NULL) { s = s + p->v; p = p->next; }
	print_int(s);
	return s;
}
`
	p := core.NewPipeline(core.Options{})
	cr, err := p.Do(core.CompileRequest{Name: "t.ec", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	seq, err := p.Run(u, core.RunConfig{Nodes: 1, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := p.Run(u, core.RunConfig{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Output != par.Output {
		t.Errorf("outputs differ: %q vs %q", seq.Output, par.Output)
	}
	if seq.Time > par.Time {
		t.Errorf("sequential build (%d) should not be slower than the EARTH build (%d)",
			seq.Time, par.Time)
	}
}

func TestInfiniteLoopTrapped(t *testing.T) {
	cfg := earthsim.DefaultConfig(1)
	cfg.MaxFiberInstr = 10000
	p := core.NewPipeline(core.Options{})
	cr, err := p.Do(core.CompileRequest{Name: "t.ec", Source: `int main() { int x; x = 0; while (x == 0) { } return x; }`})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	_, err = p.Run(u, core.RunConfig{Nodes: 1, Machine: &cfg})
	if err == nil || !strings.Contains(err.Error(), "runaway") {
		t.Errorf("expected a runaway trap, got %v", err)
	}
}

func TestGlobalVariables(t *testing.T) {
	res := run(t, `
int limit = 5;
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < limit; i++) s = s + 2;
	return s;
}
`, 1, false)
	if res.MainRet != 10 {
		t.Errorf("global read: got %d want 10", res.MainRet)
	}
}

func TestPrintOrdering(t *testing.T) {
	res := run(t, `
int main() {
	print_int(1);
	print_int(2);
	print_double(2.5);
	print_str("x\n");
	print_char('y');
	print_char('\n');
	return 0;
}
`, 1, false)
	want := "1\n2\n2.500000\nx\ny\n"
	if res.Output != want {
		t.Errorf("output %q want %q", res.Output, want)
	}
}

func TestArraysLocalStorage(t *testing.T) {
	res := run(t, `
int main() {
	int buf[8];
	int i;
	int s;
	for (i = 0; i < 8; i++) buf[i] = i * i;
	s = 0;
	for (i = 0; i < 8; i++) s = s + buf[i];
	return s;
}
`, 1, false)
	if res.MainRet != 140 {
		t.Errorf("array sum: got %d want 140", res.MainRet)
	}
}

func TestArrayIndexOutOfRangeTraps(t *testing.T) {
	err := runErr(t, `
int main() {
	int buf[4];
	int i;
	i = 100;
	buf[i] = 1;
	return 0;
}
`, 1)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("expected an index trap, got %v", err)
	}
}

// TestMemoryBudgetTrapped: runaway guest allocation is trapped instead of
// exhausting the host.
func TestMemoryBudgetTrapped(t *testing.T) {
	cfg := earthsim.DefaultConfig(1)
	cfg.MaxNodeWords = 4096
	cfg.MaxFiberInstr = 50_000_000
	p := core.NewPipeline(core.Options{})
	cr, err := p.Do(core.CompileRequest{Name: "t.ec", Source: `
struct Blob { int a; int b; int c; int d; };
int main() {
	Blob *p;
	int i;
	i = 0;
	while (i >= 0) {
		p = alloc(Blob);
		p->a = i;
		i = i + 1;
	}
	return 0;
}
`})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(cr.Unit, core.RunConfig{Nodes: 1, Machine: &cfg})
	if err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Errorf("expected an out-of-memory trap, got %v", err)
	}
}

// TestDeepRecursionTrapped: unbounded recursion exhausts the frame budget
// and traps.
func TestDeepRecursionTrapped(t *testing.T) {
	cfg := earthsim.DefaultConfig(1)
	cfg.MaxNodeWords = 8192
	cfg.MaxFiberInstr = 50_000_000
	p := core.NewPipeline(core.Options{})
	cr, err := p.Do(core.CompileRequest{Name: "t.ec", Source: `
int down(int n) { return down(n + 1); }
int main() { return down(0); }
`})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(cr.Unit, core.RunConfig{Nodes: 1, Machine: &cfg})
	if err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Errorf("expected an out-of-memory trap, got %v", err)
	}
}
