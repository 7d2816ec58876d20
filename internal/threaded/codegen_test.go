package threaded_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/threaded"
)

func gen(t *testing.T, src string, seq bool) *threaded.Program {
	t.Helper()
	cr, err := core.NewPipeline(core.Options{NoInline: true}).Do(core.CompileRequest{Name: "t.ec", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	tp, err := u.Threaded(threaded.Options{Sequential: seq})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func countOps(fc *threaded.FnCode, op threaded.Op) int {
	n := 0
	for _, in := range fc.Code {
		if in.Op == op {
			n++
		}
	}
	return n
}

func TestRemoteLoadsBecomeGets(t *testing.T) {
	tp := gen(t, `
struct P { int a; };
int g(P *p) { return p->a; }
int main() { return 0; }
`, false)
	g := tp.Funcs["g"]
	if countOps(g, threaded.OpGet) != 1 {
		t.Errorf("remote load should compile to OpGet:\n%s", g.Disasm())
	}
}

func TestLocalPointerLoadsAreDirect(t *testing.T) {
	tp := gen(t, `
struct P { int a; };
int g(P local *p) { return p->a; }
int main() { return 0; }
`, false)
	g := tp.Funcs["g"]
	if countOps(g, threaded.OpGet) != 0 {
		t.Errorf("local-pointer load must not use the runtime:\n%s", g.Disasm())
	}
	if countOps(g, threaded.OpMemLoad) != 1 {
		t.Errorf("local-pointer load should be a direct memory access:\n%s", g.Disasm())
	}
}

func TestSequentialModeHasNoRuntimeOps(t *testing.T) {
	tp := gen(t, `
struct P { int a; struct P *next; };
int main() {
	P *p;
	int s;
	int i;
	p = alloc(P);
	p->a = 2;
	s = 0;
	{^
		s = p->a;
	^}
	forall (i = 0; i < 3; i++) { }
	return s;
}
`, true)
	for name, fc := range tp.Funcs {
		for _, bad := range []threaded.Op{
			threaded.OpGet, threaded.OpPut, threaded.OpBlkGet, threaded.OpBlkPut,
			threaded.OpSpawnArm, threaded.OpSpawnIter, threaded.OpCallAt,
		} {
			if countOps(fc, bad) != 0 {
				t.Errorf("sequential build of %s contains %v:\n%s", name, bad, fc.Disasm())
			}
		}
	}
}

func TestParallelConstructsSpawn(t *testing.T) {
	tp := gen(t, `
int main() {
	int a;
	int b;
	int i;
	{^
		a = 1;
		b = 2;
	^}
	forall (i = 0; i < 3; i++) { a = 3; }
	return a + b;
}
`, false)
	m := tp.Main
	if countOps(m, threaded.OpSpawnArm) != 2 {
		t.Errorf("two parallel arms expected:\n%s", m.Disasm())
	}
	if countOps(m, threaded.OpSpawnIter) != 1 {
		t.Errorf("one iteration spawn site expected:\n%s", m.Disasm())
	}
	if countOps(m, threaded.OpJoin) != 2 {
		t.Errorf("two joins expected:\n%s", m.Disasm())
	}
}

// TestFrameFamilyUnified: spawned bodies share the spawner's frame layout,
// so their frame sizes must match exactly (regression test for the frame
// overrun bug).
func TestFrameFamilyUnified(t *testing.T) {
	tp := gen(t, `
struct C { int v; struct C *next; };
int main() {
	shared int s;
	C *head;
	C *p;
	int i;
	head = NULL;
	for (i = 0; i < 3; i++) {
		p = alloc(C);
		p->v = i;
		p->next = head;
		head = p;
	}
	writeto(&s, 0);
	forall (p = head; p != NULL; p = p->next) {
		addto(&s, p->v * 2 + 1);
	}
	return valueof(&s);
}
`, false)
	main := tp.Main
	for name, fc := range tp.Funcs {
		if fc == main || fc.Name == "nextrand" {
			continue
		}
		if len(name) > 4 && name[:4] == "main" {
			if fc.NSlots != main.NSlots {
				t.Errorf("%s frame size %d != main's %d (family must be unified)",
					name, fc.NSlots, main.NSlots)
			}
		}
	}
}

// TestArmScratchDisjoint: parallel arms share a frame; their scratch slots
// must not overlap (regression test for the arm-races bug).
func TestArmScratchDisjoint(t *testing.T) {
	tp := gen(t, `
int f(int x) { return x + 1; }
int main() {
	int a;
	int b;
	int c;
	int d;
	{^
		a = f(1) + f(2);
		b = f(3) + f(4);
		c = f(5) + f(6);
		d = f(7) + f(8);
	^}
	return a + b + c + d;
}
`, false)
	// Collect each arm's written slots (destination A of each op).
	written := map[string]map[int]bool{}
	for name, fc := range tp.Funcs {
		if !fc.IsArm {
			continue
		}
		set := map[int]bool{}
		for _, in := range fc.Code {
			switch in.Op {
			case threaded.OpMove, threaded.OpLoadImm, threaded.OpBin, threaded.OpCall:
				if in.A >= 0 {
					set[in.A] = true
				}
			}
		}
		written[name] = set
	}
	if len(written) != 4 {
		t.Fatalf("expected 4 arms, got %d", len(written))
	}
	names := make([]string, 0, 4)
	for n := range written {
		names = append(names, n)
	}
	// The user variables a..d are distinct by construction; scratch slots
	// must also be disjoint across arms.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			for s := range written[names[i]] {
				if written[names[j]][s] {
					t.Errorf("arms %s and %s both write slot %d", names[i], names[j], s)
				}
			}
		}
	}
}

func TestGlobalInitCarried(t *testing.T) {
	tp := gen(t, `
int answer = 42;
double ratio = 1.5;
int main() { return answer; }
`, false)
	if len(tp.GlobalInit) != 2 {
		t.Fatalf("want 2 global initializers, got %d", len(tp.GlobalInit))
	}
	if tp.GlobalInit[0][1] != 42 {
		t.Errorf("answer initializer = %d, want 42", tp.GlobalInit[0][1])
	}
}

func TestDisasmReadable(t *testing.T) {
	tp := gen(t, `int main() { return 1 + 2; }`, false)
	d := tp.Main.Disasm()
	if len(d) == 0 {
		t.Error("empty disassembly")
	}
}
