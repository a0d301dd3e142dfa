// dsmbench regenerates the experiment tables and curve series listed
// in EXPERIMENTS.md.
//
// Usage:
//
//	dsmbench              # run every experiment
//	dsmbench -exp e7      # run one experiment
//	dsmbench -list        # list experiments
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (e2..e16) or all")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %-58s [%s]\n", e.ID, e.Title, e.Source)
		}
		return
	}
	run := func(e bench.Experiment) {
		fmt.Printf("\n### %s — %s\n    reproduces: %s\n", e.ID, e.Title, e.Source)
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "dsmbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
	if *exp == "all" {
		for _, e := range bench.All() {
			run(e)
		}
		return
	}
	e, ok := bench.Find(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "dsmbench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}
