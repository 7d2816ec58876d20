// Healthsim runs the Olden health benchmark (the Colombian health-care
// simulation, cf. the paper's Figure 11(c)) across machine sizes, printing
// the simple-vs-optimized comparison — a single-benchmark slice of the
// paper's Table III.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/olden"
)

func main() {
	bm := olden.ByName("health")
	params := bm.DefaultParams
	src := bm.Source(params)
	fmt.Printf("health: %d levels, %d time steps\n\n", params.Size, params.Iters)

	simplePipe := core.NewPipeline(core.Options{})
	optPipe := core.NewPipeline(core.Options{Optimize: true})
	cr, err := simplePipe.Do(core.CompileRequest{Name: "health.ec", Source: src})
	if err != nil {
		log.Fatal(err)
	}
	u := cr.Unit
	seq, err := simplePipe.Run(u, core.RunConfig{Nodes: 1, Sequential: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential C baseline: %8.3f ms  output=%q\n\n",
		float64(seq.Time)/1e6, seq.Output)

	cr, err = optPipe.Do(core.CompileRequest{Name: "health.ec", Source: src})
	if err != nil {
		log.Fatal(err)
	}
	ou := cr.Unit
	fmt.Printf("%6s %12s %12s %8s %8s %8s\n",
		"nodes", "simple (ms)", "opt (ms)", "s.speed", "o.speed", "impr%")
	for _, nodes := range []int{1, 2, 4, 8} {
		sres, err := simplePipe.Run(u, core.RunConfig{Nodes: nodes})
		if err != nil {
			log.Fatal(err)
		}
		ores, err := optPipe.Run(ou, core.RunConfig{Nodes: nodes})
		if err != nil {
			log.Fatal(err)
		}
		if sres.Output != ores.Output || sres.Output != seq.Output {
			log.Fatalf("outputs diverged at %d nodes", nodes)
		}
		fmt.Printf("%6d %12.3f %12.3f %8.2f %8.2f %7.2f%%\n",
			nodes,
			float64(sres.Time)/1e6, float64(ores.Time)/1e6,
			float64(seq.Time)/float64(sres.Time),
			float64(seq.Time)/float64(ores.Time),
			100*(1-float64(ores.Time)/float64(sres.Time)))
	}
}
