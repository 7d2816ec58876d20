// Quickstart: compile the paper's motivating distance() example (Figure 3),
// show the SIMPLE code before and after communication optimization, and run
// both versions on a 2-node simulated EARTH-MANNA machine.
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
};

// The paper's Figure 3: with no locality information, every indirect
// reference through p is potentially remote.
double distance(Point *p) {
	double dist_p;
	dist_p = sqrt((p->x * p->x) + (p->y * p->y));
	return dist_p;
}

int main() {
	Point *p;
	double total;
	int i;
	// The point lives on the other node: the reads really are remote.
	p = alloc_on(Point, 1);
	p->x = 3.0;
	p->y = 4.0;
	total = 0.0;
	for (i = 0; i < 100; i++) {
		total = total + distance(p);
	}
	print_double(total);
	return trunc(total);
}
`

func main() {
	// Compile without the communication optimization ("simple")...
	simplePipe := core.NewPipeline(core.Options{NoInline: true})
	cr, err := simplePipe.Do(core.CompileRequest{Name: "distance.ec", Source: src})
	if err != nil {
		log.Fatal(err)
	}
	simpleUnit := cr.Unit
	// ...and with it.
	optPipe := core.NewPipeline(core.Options{Optimize: true, NoInline: true})
	cr, err = optPipe.Do(core.CompileRequest{Name: "distance.ec", Source: src})
	if err != nil {
		log.Fatal(err)
	}
	optUnit := cr.Unit

	fmt.Println("=== SIMPLE form (before optimization, cf. Figure 3(b)) ===")
	fmt.Println(simple.FuncString(simpleUnit.Simple.FuncByName("distance"), simple.PrintOptions{}))
	fmt.Println("=== After communication selection (cf. Figure 3(c)) ===")
	fmt.Println(simple.FuncString(optUnit.Simple.FuncByName("distance"), simple.PrintOptions{}))
	fmt.Println(optUnit.Report)
	fmt.Println()

	// Run both on a 2-node machine and compare.
	sres, err := simplePipe.Run(simpleUnit, core.RunConfig{Nodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	ores, err := optPipe.Run(optUnit, core.RunConfig{Nodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program output (both versions): %q\n", sres.Output)
	fmt.Printf("simple:    %8.3f ms   %s\n", float64(sres.Time)/1e6, sres.Counts)
	fmt.Printf("optimized: %8.3f ms   %s\n", float64(ores.Time)/1e6, ores.Counts)
	fmt.Printf("improvement: %.2f%%\n", 100*(1-float64(ores.Time)/float64(sres.Time)))
}
