package sim

import (
	"reflect"
	"testing"
)

// tickProto is the event-engine test protocol. Each tick it proposes a
// ping (its tick count) to peer, unless peer is negative; a received ping
// is logged and, with echo set, answered with its negation; a bounced leg
// is logged through Undelivered. Every log entry records the logical
// stamp at which it happened (simulated time × 1024).
type tickProto struct {
	peer NodeID
	echo bool

	ticks  []int64
	got    []Message
	gotAt  []int64
	failed []Message
	// failedAt stamps the bounces; failedAlive records ax.Alive(To).
	failedAt    []int64
	failedAlive []bool
}

func (p *tickProto) Propose(n *Node, px *Proposals) {
	p.ticks = append(p.ticks, px.Cycle())
	if p.peer >= 0 {
		px.Send(p.peer, 0, len(p.ticks))
	}
}

func (p *tickProto) Receive(n *Node, ax *ApplyContext, m Message) {
	p.got = append(p.got, m)
	p.gotAt = append(p.gotAt, ax.Cycle())
	if v := m.Data.(int); p.echo && v > 0 {
		ax.Send(m.From, m.Slot, -v)
	}
}

func (p *tickProto) Undelivered(n *Node, ax *ApplyContext, m Message) {
	p.failed = append(p.failed, m)
	p.failedAt = append(p.failedAt, ax.Cycle())
	p.failedAlive = append(p.failedAlive, ax.Alive(m.To))
}

// newTickPair builds a → b pinging each other's slot 0 with echoes on,
// both ticking every period.
func newTickPair(seed uint64, link LinkModel, period float64) (*EventEngine, *tickProto, *tickProto) {
	e := NewEventEngine(seed, link)
	pa, pb := &tickProto{peer: 1, echo: true}, &tickProto{peer: -1, echo: true}
	e.AddNode().Protocols = []Protocol{pa}
	e.AddNode().Protocols = []Protocol{pb}
	e.Start(period)
	return e, pa, pb
}

// signed returns the number of messages in ms whose payload has the sign
// of sign.
func signed(ms []Message, sign int) int {
	k := 0
	for _, m := range ms {
		if m.Data.(int)*sign > 0 {
			k++
		}
	}
	return k
}

func TestEventDelivery(t *testing.T) {
	e, pa, pb := newTickPair(1, nil, 1)
	e.RunUntil(10.5, 1<<20)
	if len(pa.ticks) < 8 {
		t.Fatalf("only %d ticks in 10.5 time units", len(pa.ticks))
	}
	// Zero latency: every ping arrived, every echo came back.
	if signed(pb.got, 1) != len(pa.ticks) || signed(pa.got, -1) != len(pa.ticks) {
		t.Fatalf("%d ticks, %d pings at b, %d echoes at a", len(pa.ticks), len(pb.got), len(pa.got))
	}
	if len(pa.failed)+len(pb.failed) != 0 || e.Dropped() != 0 {
		t.Fatalf("lossless link bounced legs: dropped=%d", e.Dropped())
	}
}

// TestEventOrderingByTime: timers tick every period × U(0.8, 1.2) after a
// first tick in [0, period), so the ticks are strictly ordered in time
// with gaps inside the jitter band; a slot with period 0 never ticks.
func TestEventOrderingByTime(t *testing.T) {
	e := NewEventEngine(2, nil)
	idle, busy := &tickProto{peer: -1}, &tickProto{peer: -1}
	e.AddNode().Protocols = []Protocol{idle, busy}
	e.Start(0, 4)
	e.RunUntil(400, 1<<20)
	if len(idle.ticks) != 0 {
		t.Fatalf("a slot with period 0 ticked %d times", len(idle.ticks))
	}
	if first := busy.ticks[0]; first < 0 || first >= 4*1024 {
		t.Fatalf("first tick at %v, want in [0, 4)", float64(first)/1024)
	}
	for i := 1; i < len(busy.ticks); i++ {
		gap := float64(busy.ticks[i]-busy.ticks[i-1]) / 1024
		if gap < 3.2-0.01 || gap > 4.8+0.01 {
			t.Fatalf("tick %d followed %v after the previous, want in [3.2, 4.8]", i, gap)
		}
	}
	if n := float64(len(busy.ticks)); n < 400/4.8 || n > 400/3.2+1 {
		t.Fatalf("%v ticks in 400 time units at period 4", n)
	}
	if e.Delivered() != int64(len(busy.ticks)) {
		t.Fatalf("Delivered=%d, want one per tick (%d)", e.Delivered(), len(busy.ticks))
	}
}

func TestEventTieBreakDeterministic(t *testing.T) {
	type trace struct {
		ticks, gotA, gotB, failA, failB []int64
		delivered, dropped              int64
	}
	run := func() trace {
		e, pa, pb := newTickPair(3, UniformLink{MinDelay: 0.5, MaxDelay: 2, LossProb: 0.2}, 1)
		e.RunUntil(200, 1<<20)
		return trace{pa.ticks, pa.gotAt, pb.gotAt, pa.failedAt, pb.failedAt, e.Delivered(), e.Dropped()}
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different event trace")
	}
}

// TestCrashedNodeDropsMessages: legs to a crashed node are dropped on
// arrival and bounce to the sender's Undelivered at the arrival time, with
// ax.Alive confirming the crash; the dead node's own ticks stop.
func TestCrashedNodeDropsMessages(t *testing.T) {
	e, pa, pb := newTickPair(4, UniformLink{MinDelay: 2, MaxDelay: 2}, 1)
	e.Crash(1)
	e.RunUntil(20, 1<<20)
	if len(pb.got)+len(pb.ticks) != 0 {
		t.Fatalf("crashed node received %d legs and ticked %d times", len(pb.got), len(pb.ticks))
	}
	if len(pa.failed) == 0 || len(pa.failed) > len(pa.ticks) {
		t.Fatalf("%d bounces for %d pings", len(pa.failed), len(pa.ticks))
	}
	for i, m := range pa.failed {
		sent := pa.ticks[m.Data.(int)-1]
		if got := pa.failedAt[i] - sent; got < 2*1024-1 || got > 2*1024+1 {
			t.Fatalf("bounce %d reported %v after the send, want the 2-unit latency", i, float64(got)/1024)
		}
		if pa.failedAlive[i] {
			t.Fatal("ax.Alive reported the crashed destination live")
		}
	}
	// b's first tick and every bounced ping were dropped.
	if e.Dropped() != int64(len(pa.failed))+1 {
		t.Fatalf("Dropped=%d, want %d", e.Dropped(), len(pa.failed)+1)
	}
}

// TestLossyLink: a lost leg still reaches its sender's Undelivered — on
// the request leg and on the reply leg alike — and timers never go
// through the link.
func TestLossyLink(t *testing.T) {
	e, pa, pb := newTickPair(5, UniformLink{MinDelay: 1, MaxDelay: 1, LossProb: 1}, 1)
	e.RunUntil(50, 1<<20)
	if len(pa.ticks) < 40 {
		t.Fatalf("lossy link stopped the timers: %d ticks", len(pa.ticks))
	}
	if len(pb.got) != 0 || len(pa.failed) < len(pa.ticks)-2 {
		t.Fatalf("loss 1: %d delivered, %d of %d pings bounced", len(pb.got), len(pa.failed), len(pa.ticks))
	}

	e, pa, pb = newTickPair(6, UniformLink{MinDelay: 1, MaxDelay: 1, LossProb: 0.5}, 1)
	e.RunUntil(400, 1<<20)
	pingsLost, echoesLost := signed(pa.failed, 1), signed(pb.failed, -1)
	if pingsLost == 0 || echoesLost == 0 {
		t.Fatalf("loss 0.5: %d pings and %d echoes bounced, want both > 0", pingsLost, echoesLost)
	}
	// Every leg resolves exactly once: delivered or bounced (minus the
	// few still in flight at the horizon).
	pings := signed(pb.got, 1) + pingsLost
	if d := len(pa.ticks) - pings; d < 0 || d > 2 {
		t.Fatalf("%d pings sent, %d resolved", len(pa.ticks), pings)
	}
	echoes := signed(pa.got, -1) + echoesLost
	if d := signed(pb.got, 1) - echoes; d < 0 || d > 2 {
		t.Fatalf("%d echoes sent, %d resolved", signed(pb.got, 1), echoes)
	}
	if e.Dropped() != int64(pingsLost+echoesLost) {
		t.Fatalf("Dropped=%d, want %d", e.Dropped(), pingsLost+echoesLost)
	}
}

func TestLatencyBounds(t *testing.T) {
	e, pa, pb := newTickPair(7, UniformLink{MinDelay: 2, MaxDelay: 4}, 1)
	e.RunUntil(100, 1<<20)
	if len(pb.got) == 0 {
		t.Fatal("nothing delivered")
	}
	for i, m := range pb.got {
		lat := float64(pb.gotAt[i]-pa.ticks[m.Data.(int)-1]) / 1024
		if lat < 2-0.001 || lat > 4+0.001 {
			t.Fatalf("ping %d took %v, outside [2, 4]", i, lat)
		}
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e, _, _ := newTickPair(8, nil, 1)
	e.RunUntil(5, 1<<20)
	if e.Now() > 5 {
		t.Fatalf("clock at %v past the horizon 5", e.Now())
	}
	if e.queue[0].at <= 5 {
		t.Fatalf("event at %v left unprocessed before the horizon", e.queue[0].at)
	}
}

func TestRunUntilMaxEvents(t *testing.T) {
	e, _, _ := newTickPair(9, nil, 1)
	if count := e.RunUntil(1e18, 50); count != 50 {
		t.Fatalf("processed %d events, want 50", count)
	}
	if e.Delivered() != 50 {
		t.Fatalf("Delivered=%d after 50 lossless events", e.Delivered())
	}
}

func TestDeliveredCounter(t *testing.T) {
	e, pa, pb := newTickPair(10, UniformLink{MinDelay: 0.5, MaxDelay: 0.5}, 1)
	e.RunUntil(100, 1<<20)
	// Ticks of both slots, pings at b, echoes at a.
	want := len(pa.ticks) + len(pb.ticks) + len(pb.got) + len(pa.got)
	if e.Delivered() != int64(want) {
		t.Fatalf("Delivered=%d, want %d", e.Delivered(), want)
	}
}

func TestEventLiveNodes(t *testing.T) {
	e := NewEventEngine(11, nil)
	a, b, c := e.AddNode(), e.AddNode(), e.AddNode()
	e.Crash(b.ID)
	live := e.LiveNodes()
	if len(live) != 2 || live[0].ID != a.ID || live[1].ID != c.ID || e.LiveCount() != 2 {
		t.Fatalf("LiveNodes = %v, LiveCount = %d", live, e.LiveCount())
	}
	if e.Node(b.ID) == nil || e.Node(b.ID).Alive {
		t.Fatal("crashed node state wrong")
	}
	if e.Node(99) != nil {
		t.Fatal("unknown node not nil")
	}
}

// TestEventReviveSingleTimerChain: a revive landing before the crashed
// node's in-flight tick arrives must not leave two timer chains on the
// slot (the stale pre-crash tick is generation-filtered), and a node
// revived after its chain died ticks again.
func TestEventReviveSingleTimerChain(t *testing.T) {
	e := NewEventEngine(12, nil)
	p := &tickProto{peer: -1}
	e.AddNode().Protocols = []Protocol{p}
	e.Start(1)
	e.RunUntil(20, 1<<20)
	e.AdvanceTo(20)
	e.Crash(0)
	e.Revive(0)
	before := len(p.ticks)
	e.RunUntil(60, 1<<20)
	// Single chain: ~40 ticks (jitter bounds it to [33, 50]); two chains
	// would make ~80.
	if got := len(p.ticks) - before; got < 33 || got > 51 {
		t.Fatalf("%d ticks in 40 time units after a crash+revive", got)
	}

	e.Crash(0)
	e.RunUntil(100, 1<<20)
	e.AdvanceTo(100)
	dead := len(p.ticks)
	e.Revive(0)
	e.RunUntil(110, 1<<20)
	if got := len(p.ticks) - dead; got < 7 || got > 13 {
		t.Fatalf("revived node ticked %d times in 10 time units", got)
	}
}
