package locality_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/locality"
	"repro/internal/simple"
)

func analyze(t *testing.T, src string) (*simple.Program, *locality.Result) {
	t.Helper()
	cr, err := core.NewPipeline(core.Options{NoInline: true}).Do(core.CompileRequest{Name: "t.ec", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	return u.Simple, u.Locality
}

func varOf(t *testing.T, sp *simple.Program, fn, name string) *simple.Var {
	t.Helper()
	v := sp.FuncByName(fn).VarByName(name)
	if v == nil {
		t.Fatalf("no var %s in %s", name, fn)
	}
	return v
}

func TestQualifierPinsLocal(t *testing.T) {
	sp, loc := analyze(t, `
struct P { int a; };
int g(P local *p) { return p->a; }
int main() { return 0; }
`)
	if !loc.IsLocal(varOf(t, sp, "g", "p")) {
		t.Error("explicitly local parameter must be local")
	}
}

func TestUnqualifiedParamRemote(t *testing.T) {
	sp, loc := analyze(t, `
struct P { int a; };
int g(P *p) { return p->a; }
int main() { return 0; }
`)
	if loc.IsLocal(varOf(t, sp, "g", "p")) {
		t.Error("unqualified pointer parameter must be treated as possibly remote")
	}
}

func TestAllocHereIsLocal(t *testing.T) {
	sp, loc := analyze(t, `
struct P { int a; };
int main() {
	P *p;
	p = alloc(P);
	return p->a;
}
`)
	if !loc.IsLocal(varOf(t, sp, "main", "p")) {
		t.Error("alloc() result is local to the executing node")
	}
}

func TestAllocOnIsRemote(t *testing.T) {
	sp, loc := analyze(t, `
struct P { int a; };
int main() {
	P *p;
	p = alloc_on(P, 1);
	return p->a;
}
`)
	if loc.IsLocal(varOf(t, sp, "main", "p")) {
		t.Error("alloc_on() may target another node")
	}
}

func TestLocalityPropagatesThroughCopies(t *testing.T) {
	sp, loc := analyze(t, `
struct P { int a; };
int main() {
	P *p;
	P *q;
	p = alloc(P);
	q = p;
	return q->a;
}
`)
	if !loc.IsLocal(varOf(t, sp, "main", "q")) {
		t.Error("copy of a local pointer is local")
	}
}

func TestHeapLoadedPointerRemote(t *testing.T) {
	sp, loc := analyze(t, `
struct N { int v; struct N *next; };
int main() {
	N *p;
	N *q;
	p = alloc(N);
	q = p->next;
	return 0;
}
`)
	if loc.IsLocal(varOf(t, sp, "main", "q")) {
		t.Error("a pointer loaded from memory has unknown origin")
	}
}

func TestMixedSourcesRemote(t *testing.T) {
	sp, loc := analyze(t, `
struct P { int a; };
int main() {
	P *p;
	int c;
	c = num_nodes();
	p = alloc(P);
	if (c > 1) {
		p = alloc_on(P, 1);
	}
	return p->a;
}
`)
	if loc.IsLocal(varOf(t, sp, "main", "p")) {
		t.Error("a pointer with any non-local source is not local")
	}
}

func TestCycleOfLocalCopiesStaysLocal(t *testing.T) {
	sp, loc := analyze(t, `
struct P { int a; };
int main() {
	P *p;
	P *q;
	int i;
	p = alloc(P);
	q = p;
	for (i = 0; i < 3; i++) {
		p = q;
		q = p;
	}
	return p->a;
}
`)
	if !loc.IsLocal(varOf(t, sp, "main", "p")) || !loc.IsLocal(varOf(t, sp, "main", "q")) {
		t.Error("mutually-copied local pointers remain local (greatest fixpoint)")
	}
}

func TestCallResultRemote(t *testing.T) {
	sp, loc := analyze(t, `
struct P { int a; };
P *make() { return alloc(P); }
int main() {
	P *p;
	p = make();
	return p->a;
}
`)
	if loc.IsLocal(varOf(t, sp, "main", "p")) {
		t.Error("returned pointers are of unknown origin (context-insensitive)")
	}
}
