// Epidemic: the Demers-style protocols behind the paper's coordination
// service, run through the engine's mailbox pipeline so a network
// partition actually bites. One rumor is seeded on a fixed random graph;
// a netsplit isolates the seed's island, the rumor saturates it and is
// visibly unable to cross (every attempt counts as a dropped message),
// then the cut heals and the epidemic finishes the job.
//
// Run with: go run ./examples/epidemic
package main

import (
	"fmt"
	"io"
	"os"

	"gossipopt/internal/gossip"
	"gossipopt/internal/overlay"
	"gossipopt/internal/sim"
)

func main() {
	run(os.Stdout, 64, 0, 30, 60)
}

// run executes the example: n nodes, a partition installed before cycle
// splitAt and removed before cycle healAt, horizon cycles total (separated
// from main for testability).
func run(out io.Writer, n int, splitAt, healAt, horizon int64) {
	e := sim.NewEngine(11)
	nodes := e.AddNodes(n)
	overlay.InitStatic(e.LiveNodes(), e.RNG(), 0, overlay.KRegularRandom(8))
	for _, nd := range nodes {
		nd.Protocols = append(nd.Protocols, &gossip.Rumor{
			Slot: 0, SelfSlot: 1, Fanout: 2, StopProb: 0.05,
		})
	}
	e.Node(0).Protocol(1).(*gossip.Rumor).Seed()

	fmt.Fprintln(out, "cycle  informed  delivered  dropped")
	for cycle := int64(0); cycle < horizon; cycle++ {
		switch cycle {
		case splitAt:
			e.SetDeliveryFilter(sim.SplitGroups(2))
			fmt.Fprintf(out, "  -- cycle %d: netsplit: two islands, the seed cut off from half the network\n", cycle)
		case healAt:
			e.SetDeliveryFilter(nil)
			fmt.Fprintf(out, "  -- cycle %d: heal\n", cycle)
		}
		e.RunCycle()
		if cycle%10 == 9 {
			fmt.Fprintf(out, "%5d  %8d  %9d  %7d\n",
				cycle+1, gossip.CountInformed(e, 1), e.Delivered(), e.Dropped())
		}
	}

	informed := gossip.CountInformed(e, 1)
	fmt.Fprintf(out, "\nfinal: %d/%d informed, %d messages dropped at the cut\n",
		informed, n, e.Dropped())
	if informed == n {
		fmt.Fprintln(out, "the rumor crossed only after the partition healed")
	}
}
