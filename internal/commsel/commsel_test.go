package commsel_test

import (
	"strings"
	"testing"

	"repro/internal/commsel"
	"repro/internal/core"
	"repro/internal/simple"
)

func optimized(t *testing.T, src string, sel commsel.Options) *core.Unit {
	t.Helper()
	cr, err := core.NewPipeline(core.Options{Optimize: true, NoInline: true, Sel: sel}).Do(core.CompileRequest{Name: "t.ec", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	return u
}

func fnText(u *core.Unit, name string) string {
	return simple.FuncString(u.Simple.FuncByName(name), simple.PrintOptions{})
}

const distanceSrc = `
struct Point { double x; double y; };
double distance(Point *p) {
	double dist_p;
	dist_p = sqrt((p->x * p->x) + (p->y * p->y));
	return dist_p;
}
int main() { return 0; }
`

// TestFigure3Pipelined: distance() has 4 reads of 2 fields; with the
// default 3-word threshold it becomes two pipelined gets (Figure 3(c))
// with the redundant reads eliminated.
func TestFigure3Pipelined(t *testing.T) {
	u := optimized(t, distanceSrc, commsel.Options{})
	out := fnText(u, "distance")
	if strings.Count(out, "get_sync") != 2 {
		t.Errorf("want 2 pipelined gets (Figure 3(c)):\n%s", out)
	}
	if strings.Contains(out, "blkmov") {
		t.Errorf("2 fields are under the 3-word threshold; no blkmov expected:\n%s", out)
	}
	tot := u.Report.Totals()
	if tot.ReadsEliminated != 2 {
		t.Errorf("2 redundant reads should be eliminated, got %d", tot.ReadsEliminated)
	}
}

// TestFigure3Blocked: with threshold 2 the same function blocks the whole
// Point (Figure 3(d)).
func TestFigure3Blocked(t *testing.T) {
	u := optimized(t, distanceSrc, commsel.Options{BlockThreshold: 2})
	out := fnText(u, "distance")
	if !strings.Contains(out, "blkmov") {
		t.Errorf("threshold 2 should block the Point (Figure 3(d)):\n%s", out)
	}
	if strings.Contains(out, "get_sync") {
		t.Errorf("all reads should go through the bcomm buffer:\n%s", out)
	}
}

const scalePointSrc = `
struct Point { double x; double y; };
double scale(double v, double k) { return v * k; }
void scale_point(Point *p, double k) {
	p->x = scale(p->x, k);
	p->y = scale(p->y, k);
}
int main() { return 0; }
`

// TestFigure4ReadsEarlyWritesLate: scale_point's reads hoist to the top and
// its writes sink to the bottom (Figure 4(c)).
func TestFigure4ReadsEarlyWritesLate(t *testing.T) {
	u := optimized(t, scalePointSrc, commsel.Options{})
	out := fnText(u, "scale_point")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Find positions: both gets must precede both calls; both puts must
	// come after both calls.
	var lastGet, firstPut, firstCall, lastCall int
	for i, l := range lines {
		switch {
		case strings.Contains(l, "get_sync"):
			lastGet = i
		case strings.Contains(l, "put_sync"):
			if firstPut == 0 {
				firstPut = i
			}
		case strings.Contains(l, "scale("):
			if firstCall == 0 {
				firstCall = i
			}
			lastCall = i
		}
	}
	if lastGet == 0 || firstPut == 0 || firstCall == 0 {
		t.Fatalf("expected gets, puts and calls:\n%s", out)
	}
	if lastGet > firstCall {
		t.Errorf("reads should be collected before the first call (Figure 4(c)):\n%s", out)
	}
	if firstPut < lastCall {
		t.Errorf("writes should be delayed past the last call (Figure 4(c)):\n%s", out)
	}
}

// TestNoWriteMotionAblation: with write motion disabled the stores stay at
// their original statements.
func TestNoWriteMotionAblation(t *testing.T) {
	u := optimized(t, scalePointSrc, commsel.Options{NoWriteMotion: true})
	out := fnText(u, "scale_point")
	if strings.Contains(out, "put_sync") {
		t.Errorf("NoWriteMotion should leave plain stores:\n%s", out)
	}
	if u.Report.Totals().PipelinedWrites != 0 {
		t.Errorf("no writes should be moved")
	}
}

// TestNoReadMotionAblation: reads become split-phase gets at their own
// statements, with no cross-statement reuse.
func TestNoReadMotionAblation(t *testing.T) {
	u := optimized(t, distanceSrc, commsel.Options{NoReadMotion: true})
	out := fnText(u, "distance")
	if got := strings.Count(out, "get_sync"); got != 4 {
		t.Errorf("NoReadMotion keeps all 4 reads, got %d:\n%s", got, out)
	}
}

// TestHashTableDedup: a second selection point never re-covers labels
// already in the hash table (the paper's redundancy elimination).
func TestHashTableDedup(t *testing.T) {
	src := `
struct P { int a; };
int g(P *p, int c) {
	int x;
	int y;
	x = p->a;
	if (c) {
		y = p->a;
	} else {
		y = 0;
	}
	return x + y;
}
int main() { return 0; }
`
	u := optimized(t, src, commsel.Options{})
	out := fnText(u, "g")
	if got := strings.Count(out, "get_sync"); got != 1 {
		t.Errorf("both reads share one get (hash-table dedup), got %d:\n%s", got, out)
	}
}

// TestBlockedReadAndWrite: a function touching >= 3 fields of one struct
// both reads-early and writes-late through a bcomm buffer, with a blocked
// write-back (the power pattern, Figure 11(a)).
func TestBlockedReadAndWrite(t *testing.T) {
	src := `
struct Branch { double r; double x; double alpha; double p; double q; };
void compute(Branch *br) {
	double a;
	double b;
	double c;
	a = br->r;
	b = br->x;
	c = br->alpha;
	br->p = a * b + c;
	br->q = a - b;
	br->alpha = c + 1.0;
}
int main() { return 0; }
`
	u := optimized(t, src, commsel.Options{})
	out := fnText(u, "compute")
	if !strings.Contains(out, "blkmov") {
		t.Fatalf("expected a blocked read:\n%s", out)
	}
	if !strings.Contains(out, "/* write */") {
		t.Errorf("three stores through one clean bcomm should block the write-back:\n%s", out)
	}
	// All field accesses should be redirected to the buffer.
	if strings.Contains(out, "br->r;") {
		t.Errorf("reads should go through bcomm:\n%s", out)
	}
}

// TestDerefSafetyBlocksSpeculation: a pointer dereferenced only inside a
// conditional must not be fetched unconditionally at the top.
func TestDerefSafetyBlocksSpeculation(t *testing.T) {
	src := `
struct P { int a; };
int g(P *p, int c) {
	int x;
	x = 0;
	if (c) {
		x = p->a;
	}
	return x;
}
int main() { return 0; }
`
	u := optimized(t, src, commsel.Options{})
	fn := u.Simple.FuncByName("g")
	// The get must be inside the if, not before it: the first statement of
	// the body must not dereference p.
	first := fn.Body.Stmts[0]
	if b, ok := first.(*simple.Basic); ok {
		if b.Kind == simple.KGetF || b.Kind == simple.KBlkRead {
			t.Errorf("unsafe speculative fetch at function entry:\n%s", fnText(u, "g"))
		}
	}
}

// TestSpeculativeOption: with Speculative set, the same read may hoist.
func TestSpeculativeOption(t *testing.T) {
	src := `
struct P { int a; };
int g(P *p, int c) {
	int x;
	x = 0;
	while (c > 0) {
		x = x + p->a;
		c = c - 1;
	}
	return x;
}
int main() { return 0; }
`
	// Non-speculative: the loop may run zero times, and p is only
	// dereferenced inside — but the in-loop tuple has frequency 10 and
	// hoists to before the loop only if proven safe. With Speculative it
	// always hoists.
	uSafe := optimized(t, src, commsel.Options{})
	uSpec := optimized(t, src, commsel.Options{Speculative: true})
	safeTop := uSafe.Simple.FuncByName("g").Body.Stmts[0]
	specTop := uSpec.Simple.FuncByName("g").Body.Stmts[0]
	if b, ok := safeTop.(*simple.Basic); ok && b.Kind == simple.KGetF {
		t.Errorf("non-speculative build must not hoist above the zero-trip loop:\n%s", fnText(uSafe, "g"))
	}
	if b, ok := specTop.(*simple.Basic); !ok || b.Kind != simple.KGetF {
		t.Errorf("speculative build should hoist the loop-invariant read:\n%s", fnText(uSpec, "g"))
	}
}

// TestLoopInvariantHoisting: reads of loop-invariant locations hoist above
// the loop when a dereference is guaranteed (the paper's t->x/t->y).
func TestLoopInvariantHoisting(t *testing.T) {
	src := `
struct P { int a; struct P *next; };
int g(P *list, P *t) {
	int s;
	s = t->a;
	while (list != NULL) {
		s = s + t->a;
		list = list->next;
	}
	return s;
}
int main() { return 0; }
`
	u := optimized(t, src, commsel.Options{})
	fn := u.Simple.FuncByName("g")
	// Exactly one get for t->a, before the loop.
	gets := 0
	simple.WalkBasics(fn.Body, func(b *simple.Basic) {
		if b.Kind == simple.KGetF && b.P.Name == "t" {
			gets++
		}
	})
	if gets != 1 {
		t.Errorf("t->a should be fetched once (hoisted, reused), got %d:\n%s",
			gets, fnText(u, "g"))
	}
}

// TestLocalPointersUntouched: accesses through declared-local pointers are
// not remote operations and must not be transformed.
func TestLocalPointersUntouched(t *testing.T) {
	src := `
struct P { int a; int b; int c; };
int g(P local *p) {
	return p->a + p->b + p->c;
}
int main() { return 0; }
`
	u := optimized(t, src, commsel.Options{})
	out := fnText(u, "g")
	if strings.Contains(out, "get_sync") || strings.Contains(out, "blkmov") {
		t.Errorf("local-pointer accesses must stay plain loads:\n%s", out)
	}
}

// TestMaxBlockWaste: widely scattered fields make the fill span too wasteful
// to block, while the same number of contiguous fields blocks fine (the
// motivation for the field-reordering extension).
func TestMaxBlockWaste(t *testing.T) {
	scattered := `
struct Big {
	int a;
	int p01; int p02; int p03; int p04; int p05; int p06; int p07;
	int b;
	int p08; int p09; int p10; int p11; int p12; int p13; int p14;
	int c;
};
int g(Big *p) { return p->a + p->b + p->c; }
int main() { return 0; }
`
	u := optimized(t, scattered, commsel.Options{MaxBlockWaste: 4})
	out := fnText(u, "g")
	if strings.Contains(out, "blkmov") {
		t.Errorf("a 17-word span for 3 fields exceeds the waste bound:\n%s", out)
	}
	if strings.Count(out, "get_sync") != 3 {
		t.Errorf("expected 3 pipelined gets:\n%s", out)
	}

	clustered := `
struct Big {
	int a; int b; int c;
	int p01; int p02; int p03; int p04; int p05; int p06; int p07;
	int p08; int p09; int p10; int p11; int p12; int p13; int p14;
};
int g(Big *p) { return p->a + p->b + p->c; }
int main() { return 0; }
`
	u2 := optimized(t, clustered, commsel.Options{MaxBlockWaste: 4})
	out2 := fnText(u2, "g")
	if !strings.Contains(out2, "blkmov") {
		t.Errorf("clustered fields should block over a 3-word span:\n%s", out2)
	}
}

// TestReportString smoke-checks the report rendering.
func TestReportString(t *testing.T) {
	u := optimized(t, distanceSrc, commsel.Options{})
	s := u.Report.String()
	if !strings.Contains(s, "pipelined") {
		t.Errorf("report should mention pipelined ops: %s", s)
	}
}
