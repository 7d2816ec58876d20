package pointsto_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pointsto"
	"repro/internal/simple"
)

func analyze(t *testing.T, src string) (*simple.Program, *pointsto.Result) {
	t.Helper()
	cr, err := core.NewPipeline(core.Options{NoInline: true}).Do(core.CompileRequest{Name: "t.ec", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	return u.Simple, u.PointsTo
}

func v(t *testing.T, sp *simple.Program, fn, name string) *simple.Var {
	t.Helper()
	f := sp.FuncByName(fn)
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	vr := f.VarByName(name)
	if vr == nil {
		t.Fatalf("no var %s in %s", name, fn)
	}
	return vr
}

func TestAllocSiteFlow(t *testing.T) {
	sp, pt := analyze(t, `
struct P { int a; };
int main() {
	P *p;
	P *q;
	p = alloc(P);
	q = p;
	return q->a;
}
`)
	pv := v(t, sp, "main", "p")
	qv := v(t, sp, "main", "q")
	if len(pt.Pts(pv)) != 1 {
		t.Errorf("p should point to exactly one site: %s", pt.Pts(pv))
	}
	if !pt.MayAlias(pv, 0, qv, 0) {
		t.Error("p and q must alias (q = p)")
	}
}

func TestDistinctSitesDontAlias(t *testing.T) {
	sp, pt := analyze(t, `
struct P { int a; };
int main() {
	P *p;
	P *q;
	p = alloc(P);
	q = alloc(P);
	return p->a + q->a;
}
`)
	pv := v(t, sp, "main", "p")
	qv := v(t, sp, "main", "q")
	if pt.MayAlias(pv, 0, qv, 0) {
		t.Error("distinct allocation sites must not alias")
	}
}

func TestFieldSensitivity(t *testing.T) {
	sp, pt := analyze(t, `
struct N { struct N *a; struct N *b; };
int main() {
	N *n;
	N *x;
	N *y;
	N *fromA;
	n = alloc(N);
	x = alloc(N);
	y = alloc(N);
	n->a = x;
	n->b = y;
	fromA = n->a;
	return 0;
}
`)
	fromA := v(t, sp, "main", "fromA")
	xv := v(t, sp, "main", "x")
	yv := v(t, sp, "main", "y")
	if !pt.MayAlias(fromA, 0, xv, 0) {
		t.Error("fromA should alias x (loaded from n->a)")
	}
	if pt.MayAlias(fromA, 0, yv, 0) {
		t.Error("fromA must not alias y (stored in n->b, a different word)")
	}
}

func TestInterproceduralFlow(t *testing.T) {
	sp, pt := analyze(t, `
struct P { int a; };
P *id(P *x) { return x; }
int main() {
	P *p;
	P *q;
	p = alloc(P);
	q = id(p);
	return q->a;
}
`)
	pv := v(t, sp, "main", "p")
	qv := v(t, sp, "main", "q")
	if !pt.MayAlias(pv, 0, qv, 0) {
		t.Error("q = id(p) should alias p (return-value flow)")
	}
}

func TestAddressTaken(t *testing.T) {
	sp, pt := analyze(t, `
int main() {
	shared int s;
	writeto(&s, 1);
	return valueof(&s);
}
`)
	sv := v(t, sp, "main", "s")
	if !pt.AddressTaken(sv) {
		t.Error("shared variable accessed via intrinsics is address-taken")
	}
}

func TestFieldAddressInteriorPointer(t *testing.T) {
	sp, pt := analyze(t, `
struct H { int a; int b; };
struct V { int lvl; struct H hosp; };
int main() {
	V *vv;
	int *pb;
	vv = alloc(V);
	pb = &(vv->hosp.b);
	*pb = 7;
	return vv->hosp.b;
}
`)
	pb := v(t, sp, "main", "pb")
	vv := v(t, sp, "main", "vv")
	// *pb and vv->hosp.b (offset 2) must alias.
	if !pt.MayAlias(pb, 0, vv, 2) {
		t.Error("interior pointer must alias the field it addresses")
	}
	if pt.MayAlias(pb, 0, vv, 0) {
		t.Error("interior pointer must not alias a different field")
	}
}

func TestListTraversalCollapses(t *testing.T) {
	// All list nodes come from one site, so p may alias any of them —
	// including head.
	sp, pt := analyze(t, `
struct N { int v; struct N *next; };
int main() {
	N *head;
	N *p;
	int i;
	head = NULL;
	for (i = 0; i < 3; i++) {
		p = alloc(N);
		p->next = head;
		head = p;
	}
	p = head;
	while (p != NULL) p = p->next;
	return 0;
}
`)
	pv := v(t, sp, "main", "p")
	hv := v(t, sp, "main", "head")
	if !pt.MayAlias(pv, 0, hv, 0) {
		t.Error("traversal pointer must alias the head (same allocation site)")
	}
}

func TestTargetsOffsets(t *testing.T) {
	sp, pt := analyze(t, `
struct P { int a; int b; };
int main() {
	P *p;
	p = alloc(P);
	p->b = 1;
	return p->b;
}
`)
	pv := v(t, sp, "main", "p")
	t0 := pt.Targets(pv, 0)
	t1 := pt.Targets(pv, 1)
	if len(t0) != 1 || len(t1) != 1 {
		t.Fatalf("expected single targets, got %s / %s", t0, t1)
	}
	for l := range t0 {
		for m := range t1 {
			if l == m {
				t.Error("different field offsets must be different locations")
			}
		}
	}
}

func TestBlockCopyFlowsPointers(t *testing.T) {
	sp, pt := analyze(t, `
struct P { int v; struct P *link; };
int main() {
	P *a;
	P *b;
	P tmp;
	P *out;
	a = alloc(P);
	b = alloc(P);
	a->link = b;
	tmp = *a;
	out = tmp.link;
	return out->v;
}
`)
	out := v(t, sp, "main", "out")
	bv := v(t, sp, "main", "b")
	if !pt.MayAlias(out, 0, bv, 0) {
		t.Error("a struct copy must carry pointer fields (out aliases b)")
	}
}
