// Pipeline example: a multi-stage transformation chain synchronized
// with set-once events instead of flag spinning — the tutorial-era
// producer-consumer pattern done correctly for every consistency
// model. Each stage waits for the previous stage's event, transforms
// its block, and fires its own; under entry consistency the block is
// bound to the event, so the firing itself delivers the data.
//
//	go run ./examples/pipeline -stages 6 -words 512 -proto ec-diff
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
	stages := flag.Int("stages", 5, "pipeline stages (= cluster nodes)")
	words := flag.Int("words", 256, "8-byte words per stage block")
	flag.Parse()

	fmt.Printf("event pipeline: %d stages x %d words\n\n", *stages, *words)
	fmt.Printf("%-16s %12s %8s %10s %14s\n", "protocol", "time", "msgs", "bytes", "grant_payload")
	for _, proto := range []core.Protocol{core.SCFixed, core.ERCUpdate, core.LRC, core.EC, core.ECDiff} {
		res, err := cluster.Run(cluster.Spec{
			Cfg: core.Config{
				Nodes:     *stages,
				Protocol:  proto,
				PageSize:  512,
				HeapBytes: 1 << 22,
			},
			App: func() apps.App { return apps.NewPipeline(*words) },
		})
		if err != nil {
			log.Fatalf("%s: %v", proto, err)
		}
		s := res.Total()
		fmt.Printf("%-16s %12v %8d %10d %14d\n",
			proto, res.Elapsed.Round(time.Microsecond), s.MsgsSent, s.BytesSent, s.GrantPayloadBytes)
	}
	fmt.Println("\nfinal stage output matched the sequential chain (verified)")
}
