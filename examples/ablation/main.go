// Ablation studies the design choices DESIGN.md calls out, on the power and
// perimeter benchmarks: the blocking threshold (the paper measured that
// blkmov wins at three or more words), and each optimization component in
// isolation (read motion, write motion, blocking).
package main

import (
	"fmt"
	"log"

	"repro/internal/commsel"
	"repro/internal/core"
	"repro/internal/olden"
)

func main() {
	for _, name := range []string{"power", "perimeter"} {
		bm := olden.ByName(name)
		params := bm.DefaultParams
		src := bm.Source(params)

		basePipe := core.NewPipeline(core.Options{})
		cr, err := basePipe.Do(core.CompileRequest{Name: name + ".ec", Source: src})
		if err != nil {
			log.Fatal(err)
		}
		baseUnit := cr.Unit
		base, err := basePipe.Run(baseUnit, core.RunConfig{Nodes: 4})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s (4 nodes; simple baseline %.3f ms) ===\n",
			name, float64(base.Time)/1e6)

		run := func(label string, sel commsel.Options) {
			p := core.NewPipeline(core.Options{Optimize: true, Sel: sel})
			cr, err := p.Do(core.CompileRequest{Name: name + ".ec", Source: src})
			if err != nil {
				log.Fatal(err)
			}
			u := cr.Unit
			res, err := p.Run(u, core.RunConfig{Nodes: 4})
			if err != nil {
				log.Fatal(err)
			}
			if res.Output != base.Output {
				log.Fatalf("%s/%s: output diverged", name, label)
			}
			fmt.Printf("%-28s %10.3f ms  impr %6.2f%%  (%s)\n",
				label, float64(res.Time)/1e6,
				100*(1-float64(res.Time)/float64(base.Time)), res.Counts)
		}

		run("full optimization", commsel.Options{})
		runReorder := func(label string) {
			p := core.NewPipeline(core.Options{Optimize: true, ReorderFields: true})
			cr, err := p.Do(core.CompileRequest{Name: name + ".ec", Source: src})
			if err != nil {
				log.Fatal(err)
			}
			u := cr.Unit
			res, err := p.Run(u, core.RunConfig{Nodes: 4})
			if err != nil {
				log.Fatal(err)
			}
			if res.Output != base.Output {
				log.Fatalf("%s/%s: output diverged", name, label)
			}
			fmt.Printf("%-28s %10.3f ms  impr %6.2f%%  (%s)\n",
				label, float64(res.Time)/1e6,
				100*(1-float64(res.Time)/float64(base.Time)), res.Counts)
		}
		runReorder("full + field reordering")
		run("no blocking", commsel.Options{NoBlocking: true})
		run("no write motion", commsel.Options{NoWriteMotion: true})
		run("no read motion", commsel.Options{NoReadMotion: true})
		for _, th := range []int{2, 4, 6} {
			run(fmt.Sprintf("block threshold %d", th), commsel.Options{BlockThreshold: th})
		}
		fmt.Println()
	}
}
