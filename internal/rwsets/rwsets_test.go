package rwsets_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rwsets"
	"repro/internal/simple"
)

func analyze(t *testing.T, src string) (*simple.Program, *rwsets.Result) {
	t.Helper()
	cr, err := core.NewPipeline(core.Options{NoInline: true}).Do(core.CompileRequest{Name: "t.ec", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	return u.Simple, u.RWSets
}

func findBasic(f *simple.Func, fragment string) *simple.Basic {
	var out *simple.Basic
	simple.WalkBasics(f.Body, func(b *simple.Basic) {
		if out == nil && strings.Contains(simple.BasicText(b), fragment) {
			out = b
		}
	})
	return out
}

func varOf(t *testing.T, sp *simple.Program, fn, name string) *simple.Var {
	t.Helper()
	v := sp.FuncByName(fn).VarByName(name)
	if v == nil {
		t.Fatalf("no var %s", name)
	}
	return v
}

func TestVarWrittenDirect(t *testing.T) {
	sp, rw := analyze(t, `
int main() {
	int x;
	int y;
	x = 1;
	y = 2;
	return x + y;
}
`)
	f := sp.FuncByName("main")
	x := varOf(t, sp, "main", "x")
	sx := findBasic(f, "x = 1")
	sy := findBasic(f, "y = 2")
	if !rw.VarWritten(x, sx) {
		t.Error("x = 1 writes x")
	}
	if rw.VarWritten(x, sy) {
		t.Error("y = 2 does not write x")
	}
}

func TestAccessedViaAliasDistinguishesDirect(t *testing.T) {
	sp, rw := analyze(t, `
struct P { int a; };
int g(P *p, P *q) {
	int x;
	int y;
	x = p->a;
	y = q->a;
	p->a = 3;
	return x + y;
}
int main() {
	P *s;
	s = alloc(P);
	return g(s, s);
}
`)
	f := sp.FuncByName("g")
	p := varOf(t, sp, "g", "p")
	q := varOf(t, sp, "g", "q")
	directRead := findBasic(f, "x = p->a")
	aliasRead := findBasic(f, "y = q->a")
	store := findBasic(f, "p->a = 3")

	// From p's perspective, its own read is direct, q's read is an alias.
	if rw.AccessedViaAlias(p, 0, directRead, false) {
		t.Error("p's own read is direct, not an alias")
	}
	if !rw.AccessedViaAlias(p, 0, aliasRead, false) {
		t.Error("q's read of the same word is an aliased read for p")
	}
	// The store via p is a direct write for p but an aliased write for q.
	if rw.AccessedViaAlias(p, 0, store, true) {
		t.Error("p's own store is direct")
	}
	if !rw.AccessedViaAlias(q, 0, store, true) {
		t.Error("p's store is an aliased write for q")
	}
}

func TestCallSummaryPropagates(t *testing.T) {
	sp, rw := analyze(t, `
struct P { int a; };
void poke(P *p) { p->a = 1; }
int g(P *p) {
	int x;
	poke(p);
	x = 5;
	return x;
}
int main() {
	P *s;
	s = alloc(P);
	return g(s);
}
`)
	f := sp.FuncByName("g")
	p := varOf(t, sp, "g", "p")
	call := findBasic(f, "poke(")
	// The callee writes p->a; from the caller that is an aliased write
	// (provenance does not survive the call boundary).
	if !rw.AccessedViaAlias(p, 0, call, true) {
		t.Error("callee's write must appear as an aliased write at the call")
	}
}

func TestCompoundEffectsUnionChildren(t *testing.T) {
	sp, rw := analyze(t, `
struct P { int a; };
int g(P *p, int c) {
	int x;
	x = 0;
	if (c) {
		p->a = 1;
	}
	return x;
}
int main() {
	P *s;
	s = alloc(P);
	return g(s, 1);
}
`)
	f := sp.FuncByName("g")
	q := varOf(t, sp, "g", "p")
	var ifStmt simple.Stmt
	simple.WalkStmts(f.Body, func(s simple.Stmt) {
		if _, ok := s.(*simple.If); ok {
			ifStmt = s
		}
	})
	eff := rw.Stmt[ifStmt]
	if eff == nil {
		t.Fatal("no effects recorded for the if statement")
	}
	// The if contains a direct store via p: it must not read as "aliased"
	// for p itself, but must be visible as a write at all.
	if rw.AccessedViaAlias(q, 0, ifStmt, true) {
		t.Error("direct store inside the if is not an alias for p")
	}
	wrote := false
	for range eff.Writes {
		wrote = true
	}
	if !wrote {
		t.Error("the if's effects must include the store")
	}
}

func TestSharedIntrinsicEffects(t *testing.T) {
	sp, rw := analyze(t, `
int main() {
	shared int s;
	int x;
	writeto(&s, 1);
	addto(&s, 2);
	x = valueof(&s);
	return x;
}
`)
	f := sp.FuncByName("main")
	sv := varOf(t, sp, "main", "s")
	w := findBasic(f, "writeto")
	r := findBasic(f, "valueof")
	// Shared ops are aliased ("other") accesses to the variable's slot.
	if !rw.AccessedViaAlias(svPtrProxy(sv), 0, w, true) {
		// The query interface wants a pointer; shared vars are accessed via
		// their own location, so check the raw effect sets instead.
		eff := rw.Stmt[simple.Stmt(w)]
		found := false
		for l := range eff.Writes {
			if l.Base == any(sv) {
				found = true
			}
		}
		if !found {
			t.Error("writeto must write the shared variable's location")
		}
	}
	effR := rw.Stmt[simple.Stmt(r)]
	found := false
	for l := range effR.Reads {
		if l.Base == any(sv) {
			found = true
		}
	}
	if !found {
		t.Error("valueof must read the shared variable's location")
	}
}

// svPtrProxy only exists to exercise the nil-tolerant query path.
func svPtrProxy(v *simple.Var) *simple.Var { return v }

func TestUnknownStatementIsConservative(t *testing.T) {
	sp, rw := analyze(t, `int main() { int x; x = 1; return x; }`)
	x := varOf(t, sp, "main", "x")
	ghost := &simple.Basic{Kind: simple.KAssign}
	if !rw.VarWritten(x, ghost) {
		t.Error("unknown statements must be treated conservatively")
	}
}

func TestRegisterNewBasic(t *testing.T) {
	sp, rw := analyze(t, `
struct P { int a; };
int main() {
	P *p;
	p = alloc(P);
	return p->a;
}
`)
	p := varOf(t, sp, "main", "p")
	g := sp.FuncByName("main").NewBasic(simple.KGetF)
	g.P = p
	g.Off = 0
	g.Dst = p // arbitrary
	rw.Register(g)
	// A registered get is an aliased ("other") read for p.
	if !rw.AccessedViaAlias(p, 0, g, false) {
		t.Error("registered get should read p->a as an 'other' access")
	}
}
