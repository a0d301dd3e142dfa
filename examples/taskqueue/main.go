// Task queue example: a producer-consumer farm over a lock-protected
// shared queue — the mutual-exclusion-bound workload on which entry
// consistency's data-carrying lock grants shine. Compares the
// lock-handoff costs of SC, LRC and EC on identical work.
//
//	go run ./examples/taskqueue -tasks 400 -work 20 -nodes 6
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
	tasks := flag.Int("tasks", 200, "number of tasks")
	work := flag.Int("work", 15, "busy-work units per task (10 000 multiply-adds each)")
	nodes := flag.Int("nodes", 4, "cluster size")
	latency := flag.Duration("latency", 20*time.Microsecond, "per-message latency")
	flag.Parse()

	fmt.Printf("task farm: %d tasks x %d work, %d nodes, %v latency\n\n", *tasks, *work, *nodes, *latency)
	fmt.Printf("%-10s %12s %10s %10s %12s %14s\n",
		"protocol", "time", "locks", "msgs", "bytes", "grant_payload")

	for _, proto := range []core.Protocol{core.SCFixed, core.LRC, core.EC} {
		res, err := cluster.Run(cluster.Spec{
			Cfg: core.Config{
				Nodes:     *nodes,
				Protocol:  proto,
				PageSize:  512,
				HeapBytes: 1 << 22,
				Latency:   *latency,
			},
			App: func() apps.App { return apps.NewTaskQueue(*tasks, *work) },
		})
		if err != nil {
			log.Fatalf("%s: %v", proto, err)
		}
		s := res.Total()
		fmt.Printf("%-10s %12v %10d %10d %12d %14d\n",
			proto, res.Elapsed.Round(time.Millisecond), s.LockAcquires, s.MsgsSent, s.BytesSent, s.GrantPayloadBytes)
	}
	fmt.Println("\nevery task result matched the reference computation (verified)")
}
