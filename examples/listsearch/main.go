// Listsearch reproduces the paper's worked example of Figures 7 and 8: a
// list traversal comparing each element against a target point. It prints
// the possible-placement analysis' RemoteReads sets per statement (Figure
// 7), the transformed code with pipelined and blocked communication (Figure
// 8(b)), and runs both versions on a 4-node machine.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/simple"
)

const src = `
struct Point {
	double x;
	double y;
	struct Point *next;
};

double f(double ax, double ay, double bx, double by) {
	double dx;
	double dy;
	dx = ax - bx;
	dy = ay - by;
	return sqrt(dx * dx + dy * dy);
}

// The paper's Figure 7 fragment: find the last point within epsilon of *t,
// then compute coordinate differences.
double example(Point *head, Point *t, double epsilon) {
	Point *p;
	Point *close;
	double ax; double ay; double bx; double by;
	double cx; double tx; double diffx;
	double cy; double ty; double diffy;
	double dist;
	close = NULL;
	p = head;
	while (p != NULL) {
		ax = p->x;
		ay = p->y;
		bx = t->x;
		by = t->y;
		dist = f(ax, ay, bx, by);
		if (dist < epsilon) close = p;
		p = p->next;
	}
	cx = close->x;
	tx = t->x;
	diffx = cx - tx;
	cy = close->y;
	ty = t->y;
	diffy = cy - ty;
	return diffx + diffy;
}

int main() {
	Point *head;
	Point *t;
	Point *p;
	int i;
	int n;
	double d;
	head = NULL;
	n = num_nodes();
	for (i = 0; i < 64; i++) {
		p = alloc_on(Point, i % n);
		p->x = dbl(i % 17);
		p->y = dbl(i % 13);
		p->next = head;
		head = p;
	}
	t = alloc(Point);
	t->x = 5.0;
	t->y = 5.0;
	d = example(head, t, 4.0);
	print_double(d);
	return trunc(d);
}
`

func main() {
	optPipe := core.NewPipeline(core.Options{Optimize: true, NoInline: true})
	cr, err := optPipe.Do(core.CompileRequest{Name: "listsearch.ec", Source: src})
	if err != nil {
		log.Fatal(err)
	}
	u := cr.Unit

	fmt.Println("=== RemoteReads sets (possible-placement analysis, cf. Figure 7) ===")
	fn := u.Simple.FuncByName("example")
	simple.WalkStmts(fn.Body, func(s simple.Stmt) {
		b, ok := s.(*simple.Basic)
		if !ok {
			return
		}
		if rs := u.Placement.Reads[s]; rs != nil && rs.Len() > 0 {
			fmt.Printf("  S%-3d %-30s %s\n", b.Label, simple.BasicText(b), rs)
		}
	})

	fmt.Println("\n=== Transformed code (cf. Figure 8(b)) ===")
	fmt.Println(simple.FuncString(fn, simple.PrintOptions{Labels: true}))
	fmt.Println(u.Report)

	simplePipe := core.NewPipeline(core.Options{NoInline: true})
	cr, err = simplePipe.Do(core.CompileRequest{Name: "listsearch.ec", Source: src})
	if err != nil {
		log.Fatal(err)
	}
	simpleUnit := cr.Unit
	sres, err := simplePipe.Run(simpleUnit, core.RunConfig{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	ores, err := optPipe.Run(u, core.RunConfig{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	if sres.Output != ores.Output {
		log.Fatalf("outputs differ: %q vs %q", sres.Output, ores.Output)
	}
	fmt.Printf("output: %q\n", sres.Output)
	fmt.Printf("simple:    %8.3f ms   %s\n", float64(sres.Time)/1e6, sres.Counts)
	fmt.Printf("optimized: %8.3f ms   %s\n", float64(ores.Time)/1e6, ores.Counts)
	fmt.Printf("improvement: %.2f%%\n", 100*(1-float64(ores.Time)/float64(sres.Time)))
}
