// SOR example: the classic barrier-synchronized red-black relaxation
// on a shared grid, comparing protocols side by side on the same
// problem. This is the workload family (grids with boundary-row
// sharing) that page-based DSM systems were evaluated on.
//
//	go run ./examples/sor -rows 128 -cols 128 -iters 10 -nodes 8
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
)

func main() {
	rows := flag.Int("rows", 96, "grid rows")
	cols := flag.Int("cols", 96, "grid columns")
	iters := flag.Int("iters", 8, "full red-black sweeps")
	nodes := flag.Int("nodes", 4, "cluster size")
	page := flag.Int("page", 1024, "page size (bytes)")
	latency := flag.Duration("latency", 50*time.Microsecond, "per-message latency")
	flag.Parse()

	fmt.Printf("red-black SOR %dx%d, %d sweeps, %d nodes, %dB pages, %v latency\n\n",
		*rows, *cols, *iters, *nodes, *page, *latency)
	fmt.Printf("%-16s %12s %10s %10s %12s %10s\n",
		"protocol", "time", "faults", "msgs", "bytes", "diffs")

	for _, proto := range []core.Protocol{
		core.SCCentral, core.SCFixed, core.SCDynamic,
		core.ERCInvalidate, core.ERCUpdate, core.HLRC, core.LRC,
	} {
		res, err := cluster.Run(cluster.Spec{
			Cfg: core.Config{
				Nodes:     *nodes,
				Protocol:  proto,
				PageSize:  *page,
				HeapBytes: int64(*rows**cols*8) + 1<<20,
				Latency:   *latency,
			},
			App: func() apps.App { return apps.NewSOR(*rows, *cols, *iters) },
		})
		if err != nil {
			log.Fatalf("%s: %v", proto, err)
		}
		s := res.Total()
		fmt.Printf("%-16s %12v %10d %10d %12d %10d\n",
			proto, res.Elapsed.Round(time.Millisecond), s.Faults(), s.MsgsSent, s.BytesSent, s.DiffsCreated)
	}
	fmt.Println("\nall protocols produced the sequential-reference grid (verified)")
}
