package sim

import "testing"

func TestSplitGroups(t *testing.T) {
	if SplitGroups(0) != nil || SplitGroups(1) != nil {
		t.Fatal("k <= 1 must mean no partition")
	}
	f := SplitGroups(2)
	if !f(0, 2) || !f(1, 3) {
		t.Fatal("same-island traffic blocked")
	}
	if f(0, 1) || f(3, 2) {
		t.Fatal("cross-island traffic allowed")
	}
}

func TestSplitGroupsOneWay(t *testing.T) {
	if SplitGroupsOneWay(0) != nil || SplitGroupsOneWay(1) != nil {
		t.Fatal("k <= 1 must mean no partition")
	}
	f := SplitGroupsOneWay(2)
	if !f(0, 2) || !f(1, 3) {
		t.Fatal("same-island traffic blocked")
	}
	if !f(0, 1) || !f(2, 3) {
		t.Fatal("low-to-high island traffic blocked")
	}
	if f(1, 0) || f(3, 2) {
		t.Fatal("high-to-low island traffic allowed")
	}
}

// TestEnginePartitionAndHeal: under a partition, cross-island pings take
// the undeliverable path and same-island traffic is unaffected; after the
// heal, delivery resumes.
func TestEnginePartitionAndHeal(t *testing.T) {
	// Ring of 4: node i pings i+1, so every ping crosses islands under a
	// 2-way split (even→odd→even...).
	e, protos := buildPingRing(21, 4, 1)
	e.SetDeliveryFilter(SplitGroups(2))
	e.Run(3)
	for i, p := range protos {
		if p.got != 0 || p.failed != 3 {
			t.Fatalf("partitioned node %d: got=%d failed=%d, want 0/3", i, p.got, p.failed)
		}
	}
	if e.Delivered() != 0 || e.Dropped() != 12 {
		t.Fatalf("counters during partition: delivered=%d dropped=%d, want 0/12", e.Delivered(), e.Dropped())
	}

	e.SetDeliveryFilter(nil)
	e.Run(2)
	for i, p := range protos {
		if p.got != 2 || p.failed != 3 {
			t.Fatalf("healed node %d: got=%d failed=%d, want 2/3", i, p.got, p.failed)
		}
	}
	if e.Delivered() != 8 {
		t.Fatalf("Delivered=%d after heal, want 8", e.Delivered())
	}
}

// TestEnginePartitionMidCycle: a filter installed by scenario code blocks
// even messages proposed before it was installed, because filtering happens
// at delivery time.
func TestEnginePartitionSameSideUnaffected(t *testing.T) {
	// 4 nodes, node i pings i+2 (stays on its island under a 2-way split).
	e := NewEngine(22)
	protos := make([]*pingProto, 0, 4)
	e.SetNodeFactory(func(nd *Node) {
		p := &pingProto{next: NodeID((int64(nd.ID) + 2) % 4)}
		protos = append(protos, p)
		nd.Protocols = []Protocol{p}
	})
	e.AddNodes(4)
	e.SetDeliveryFilter(SplitGroups(2))
	e.Run(3)
	for i, p := range protos {
		if p.got != 3 || p.failed != 0 {
			t.Fatalf("same-island node %d: got=%d failed=%d, want 3/0", i, p.got, p.failed)
		}
	}
}

// TestEventEnginePartitionAndHeal is the event-engine regression test:
// legs across a partition are dropped at arrival (including ones already
// in flight when it forms) and bounce to the sender, which sees the peer
// unreachable but alive; timers are never filtered; delivery resumes
// after the heal.
func TestEventEnginePartitionAndHeal(t *testing.T) {
	e, pa, pb := newTickPair(23, UniformLink{MinDelay: 1, MaxDelay: 1}, 1)
	e.RunUntil(10, 1<<20)
	e.AdvanceTo(10)
	if len(pb.got) == 0 {
		t.Fatal("nothing delivered before the partition")
	}
	inFlight := len(pa.ticks) - len(pb.got)
	got, ticks := len(pb.got), len(pb.ticks)

	e.SetDeliveryFilter(SplitGroups(2)) // a on island 0, b on island 1
	e.RunUntil(30, 1<<20)
	e.AdvanceTo(30)
	if len(pb.got) != got {
		t.Fatalf("%d cross-partition legs delivered", len(pb.got)-got)
	}
	if len(pb.ticks)-ticks < 15 {
		t.Fatalf("partition filtered timers: %d ticks in 20 time units", len(pb.ticks)-ticks)
	}
	if inFlight == 0 || len(pa.failed) < 15 {
		t.Fatalf("%d legs were in flight, %d bounced", inFlight, len(pa.failed))
	}
	for _, alive := range pa.failedAlive {
		if !alive {
			t.Fatal("ax.Alive reported a partitioned peer dead")
		}
	}

	e.SetDeliveryFilter(nil)
	failed := len(pa.failed)
	e.RunUntil(40, 1<<20)
	if len(pb.got)-got < 5 {
		t.Fatalf("delivery did not resume after the heal: %d legs", len(pb.got)-got)
	}
	// Only legs that arrived before the heal could still bounce.
	if len(pa.failed) > failed+1 {
		t.Fatalf("%d legs bounced after the heal", len(pa.failed)-failed)
	}
}

func TestEventEngineReviveAndSetLink(t *testing.T) {
	e, pa, pb := newTickPair(24, nil, 1)
	e.Crash(1)
	e.RunUntil(10, 1<<20)
	e.AdvanceTo(10)
	if len(pb.got) != 0 {
		t.Fatalf("dead node received %d legs", len(pb.got))
	}
	e.Revive(1)
	if !e.Node(1).Alive {
		t.Fatal("Revive did not mark node alive")
	}
	e.RunUntil(20, 1<<20)
	e.AdvanceTo(20)
	if len(pb.got) == 0 || len(pb.ticks) == 0 {
		t.Fatalf("revived node got %d legs, ticked %d times", len(pb.got), len(pb.ticks))
	}

	// SetLink swaps the model in force for subsequent legs.
	e.SetLink(UniformLink{MinDelay: 10, MaxDelay: 10})
	got := len(pb.got)
	e.RunUntil(40, 1<<20)
	for i := got; i < len(pb.got); i++ {
		sent := pa.ticks[pb.got[i].Data.(int)-1]
		if lat := pb.gotAt[i] - sent; lat < 10*1024-1 || lat > 10*1024+1 {
			t.Fatalf("latency after SetLink: %v, want 10", float64(lat)/1024)
		}
	}
	if len(pb.got) == got {
		t.Fatal("nothing delivered after SetLink")
	}
}
