package des

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

func testCluster(p int) *Cluster {
	net := topology.Sunway()
	net.SupernodeSize = 4
	return NewCluster(net, topology.AdjacentMapping{Q: 4}, p)
}

// TestPingPongClocks pins the Send/Recv clock arithmetic against the
// cost model directly: a two-rank ping-pong where each leg's arrival
// time is max(receiver clock, send time) + α + βn.
func TestPingPongClocks(t *testing.T) {
	c := testCluster(2)
	payload := []float32{1, 2, 3, 4}
	alpha, transfer := c.linkCost(topology.SameSupernode(c.Mapping, 0, 1, c.P), len(payload))

	res, outs := c.RunGather(func(r *Rank) {
		switch r.Rank {
		case 0:
			r.Send(1, payload)
			r.Recv(1, func(data []float32) {
				r.Finish(data)
			})
		case 1:
			r.Recv(0, func(data []float32) {
				r.Send(0, data)
				r.Finish(data)
			})
		}
	})

	// Rank 1's recv starts at max(0, send time 0); its echo send then
	// advances it to 2(α+βn). Rank 0's recv starts at max(its own clock
	// after the send, the echo's send time) = α+βn, landing at 2(α+βn).
	leg := alpha + transfer
	if got, want := res.Clocks[1], leg+leg; got != want {
		t.Fatalf("rank 1 clock: got %v want %v", got, want)
	}
	if got, want := res.Clocks[0], leg+alpha+transfer; got != want {
		t.Fatalf("rank 0 clock: got %v want %v", got, want)
	}
	if res.Time != res.Clocks[0] {
		t.Fatalf("makespan %v, want rank 0's clock %v", res.Time, res.Clocks[0])
	}
	if res.Msgs != 2 {
		t.Fatalf("msgs: got %d want 2", res.Msgs)
	}
	for _, out := range outs {
		for i := range out {
			if out[i] != payload[i] {
				t.Fatalf("payload corrupted in flight: %v", out)
			}
		}
	}
}

// TestCrossSupernodeCensus: messages crossing the supernode boundary
// are counted with their byte volume; intra-supernode ones are not.
func TestCrossSupernodeCensus(t *testing.T) {
	c := testCluster(8) // q=4: ranks 0-3 and 4-7 in different supernodes
	data := make([]float32, 16)
	_, _ = c.RunGather(func(r *Rank) {
		defer r.Finish(nil)
		switch r.Rank {
		case 0:
			r.Send(1, data) // intra
		case 1:
			r.Recv(0, func([]float32) {})
		case 2:
			r.Send(5, data) // cross
		case 5:
			r.Recv(2, func([]float32) {})
		}
	})
	// Re-run to read the census (RunGather returns it).
	res, _ := c.RunGather(func(r *Rank) {
		defer r.Finish(nil)
		switch r.Rank {
		case 0:
			r.Send(1, data)
		case 1:
			r.Recv(0, func([]float32) {})
		case 2:
			r.Send(5, data)
		case 5:
			r.Recv(2, func([]float32) {})
		}
	})
	if res.Msgs != 2 || res.CrossMsgs != 1 {
		t.Fatalf("census: msgs=%d crossMsgs=%d, want 2/1", res.Msgs, res.CrossMsgs)
	}
	wantBytes := int64(float64(len(data)) * c.BytesPerElem)
	if res.CrossBytes != wantBytes {
		t.Fatalf("crossBytes: got %d want %d", res.CrossBytes, wantBytes)
	}
}

// TestDeadlockPanics: a rank parked on a message that never comes must
// surface as a deadlock panic naming the parked link, not a hang.
func TestDeadlockPanics(t *testing.T) {
	c := testCluster(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "[1 0]") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.Run(func(r *Rank) {
		if r.Rank == 0 {
			r.Recv(1, func([]float32) { r.Finish(nil) }) // never sent
			return
		}
		r.Finish(nil)
	})
}

// TestUnconsumedWirePanics: a message left queued on a link after every
// rank finished is a protocol bug the run must refuse to bless.
func TestUnconsumedWirePanics(t *testing.T) {
	c := testCluster(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected unconsumed-message panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "unconsumed") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.Run(func(r *Rank) {
		if r.Rank == 0 {
			r.Send(1, []float32{1})
		}
		r.Finish(nil)
	})
}

// TestRankPanicCarriesRank: a panic inside a rank body (or one of its
// continuations) is rewrapped as RankPanic so elastic recovery can
// identify the victim, matching simnet.NodePanic's contract.
func TestRankPanicCarriesRank(t *testing.T) {
	c := testCluster(4)
	defer func() {
		r := recover()
		rp, ok := r.(RankPanic)
		if !ok {
			t.Fatalf("expected RankPanic, got %T: %v", r, r)
		}
		if rp.FailedRank() != 2 {
			t.Fatalf("failed rank: got %d want 2", rp.FailedRank())
		}
		if rp.Value != "boom" {
			t.Fatalf("panic value: got %v want boom", rp.Value)
		}
	}()
	c.Run(func(r *Rank) {
		if r.Rank == 2 {
			panic("boom")
		}
		r.Finish(nil)
	})
}

// TestContinuationPanicCarriesRank: the rewrap must also catch panics
// raised inside heap-scheduled continuations, not just the seed call.
func TestContinuationPanicCarriesRank(t *testing.T) {
	c := testCluster(2)
	defer func() {
		rp, ok := recover().(RankPanic)
		if !ok || rp.FailedRank() != 1 {
			t.Fatalf("expected RankPanic from rank 1, got %v", rp)
		}
	}()
	c.Run(func(r *Rank) {
		if r.Rank == 0 {
			r.Send(1, []float32{1})
			r.Finish(nil)
			return
		}
		r.Recv(0, func([]float32) { panic("late") })
	})
}

// TestEventHeapTieBreak pins the scheduler's total order directly:
// events pop by (simTime, world rank), so ties on the simulated clock
// break by rank — never by insertion accident. A rank has at most one
// pending event, so the ranks below are distinct.
func TestEventHeapTieBreak(t *testing.T) {
	events := []event{
		{time: 2, rank: 0},
		{time: 1, rank: 3},
		{time: 1, rank: 1},
		{time: 0, rank: 5},
		{time: 1, rank: 2},
		{time: 0, rank: 4},
	}
	want := []event{
		{time: 0, rank: 4},
		{time: 0, rank: 5},
		{time: 1, rank: 1},
		{time: 1, rank: 2},
		{time: 1, rank: 3},
		{time: 2, rank: 0},
	}
	// Every insertion order must yield the same pop order.
	for shift := 0; shift < len(events); shift++ {
		var h eventHeap
		for i := range events {
			h.push(events[(i+shift)%len(events)])
		}
		for i := range want {
			if got := h.pop(); got != want[i] {
				t.Fatalf("shift %d pop %d: got %+v want %+v", shift, i, got, want[i])
			}
		}
	}
}

// TestDoubleFinishPanics guards the one-result-per-rank contract.
func TestDoubleFinishPanics(t *testing.T) {
	c := testCluster(1)
	defer func() {
		r := recover()
		if rp, ok := r.(RankPanic); !ok || !strings.Contains(rp.Error(), "finished twice") {
			t.Fatalf("expected finished-twice RankPanic, got %v", r)
		}
	}()
	c.Run(func(r *Rank) {
		r.Finish(nil)
		r.Finish(nil)
	})
}

// TestInGroupViews: group views share the clock, translate ranks, and
// refuse nesting and non-members — mirroring simnet.
func TestInGroupViews(t *testing.T) {
	c := testCluster(4)
	c.Run(func(r *Rank) {
		defer r.Finish(nil)
		if r.Rank != 1 && r.Rank != 3 {
			return
		}
		g := r.InGroup([]int{1, 3})
		if g.P() != 2 {
			t.Errorf("group P: got %d want 2", g.P())
		}
		if g.WorldRank() != r.Rank {
			t.Errorf("world rank: got %d want %d", g.WorldRank(), r.Rank)
		}
		wantIdx := 0
		if r.Rank == 3 {
			wantIdx = 1
		}
		if g.Rank != wantIdx {
			t.Errorf("group rank: got %d want %d", g.Rank, wantIdx)
		}
		g.AdvanceClock(1)
		if r.Clock() != g.Clock() {
			t.Errorf("group view does not share the clock")
		}
	})

	func() {
		defer func() {
			if rp, ok := recover().(RankPanic); !ok || !strings.Contains(rp.Error(), "not a member") {
				t.Fatalf("expected not-a-member panic")
			}
		}()
		c.Run(func(r *Rank) {
			if r.Rank == 0 {
				r.InGroup([]int{1, 2})
			}
			r.Finish(nil)
		})
	}()
}

// TestSecondWaiterPanics: the at-most-one-parked-receiver invariant is
// a scheduler assertion, not silent corruption.
func TestSecondWaiterPanics(t *testing.T) {
	c := testCluster(2)
	defer func() {
		rp, ok := recover().(RankPanic)
		if !ok || !strings.Contains(rp.Error(), "second receiver") {
			t.Fatalf("expected second-receiver panic, got %v", rp)
		}
	}()
	c.Run(func(r *Rank) {
		if r.Rank == 1 {
			// Park two receives on the same link without chaining — a
			// protocol violation the scheduler must catch.
			r.Recv(0, func([]float32) {})
			r.Recv(0, func([]float32) {})
			return
		}
		r.Finish(nil)
	})
}

// TestUnconsumedPanicNamesLowestLink: with several links left holding
// messages, the panic names the lowest (src, dst) — the link a sorted
// walk would report first — whatever the table's slot order.
func TestUnconsumedPanicNamesLowestLink(t *testing.T) {
	c := testCluster(16)
	defer func() {
		msg, ok := recover().(string)
		if !ok || msg != "des: unconsumed message on link [1 5]" {
			t.Fatalf("unexpected panic: %q", msg)
		}
	}()
	c.Run(func(r *Rank) {
		defer r.Finish(nil)
		switch {
		case r.Rank == 0:
			r.Send(1, []float32{1}) // consumed below: [0 1] must not be named
		case r.Rank == 1:
			r.Send(5, []float32{1})
			r.Recv(0, func([]float32) {})
		default:
			r.Send((r.Rank*5+1)%16, []float32{1})
			if r.Rank == 15 {
				r.Send(2, []float32{1})
			}
		}
	})
}

// TestDeadlockListsParkedLinksSorted: every parked link appears in the
// deadlock panic, in ascending (src, dst) order.
func TestDeadlockListsParkedLinksSorted(t *testing.T) {
	c := testCluster(6)
	defer func() {
		msg, ok := recover().(string)
		want := "des: deadlock — 1 of 6 ranks finished, parked waiters on links [[0 5] [2 1] [3 2] [4 3] [5 4]]"
		if !ok || msg != want {
			t.Fatalf("unexpected panic: %q", msg)
		}
	}()
	c.Run(func(r *Rank) {
		if r.Rank == 0 {
			r.Finish(nil)
			return
		}
		r.Recv((r.Rank+1)%6, func([]float32) { r.Finish(nil) })
	})
}

// TestEventHeapRandomOrder: the heap pops any interleaving of pushes
// in exact (time, rank) order, across several tree depths and with
// heavy ties on time. As in a run, each pending event has its own rank;
// a rank is drawn again only after its event has popped.
func TestEventHeapRandomOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	free := make([]int, 256)
	for i := range free {
		free[i] = i
	}
	var h eventHeap
	var want []event
	for round := 0; round < 50; round++ {
		for n := rng.Intn(len(free) + 1); n > 0; n-- {
			i := rng.Intn(len(free))
			e := event{time: float64(rng.Intn(8)), rank: free[i]}
			free[i] = free[len(free)-1]
			free = free[:len(free)-1]
			h.push(e)
			want = append(want, e)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].before(&want[j]) })
		for pops := rng.Intn(len(want) + 1); pops > 0; pops-- {
			if got := h.pop(); got != want[0] {
				t.Fatalf("round %d: popped %+v, want %+v", round, got, want[0])
			}
			free = append(free, want[0].rank)
			want = want[1:]
		}
	}
}

// TestInboxPerLinkFIFO: wires from two sources share the receiver's
// inbox, and the receiver takes them in an order other than arrival
// order. Each (src, dst) link must still deliver in send order, with
// clocks hex-identical to the goroutine backend's. Rank 2 sits across
// the supernode boundary, so both link prices are exercised.
func TestInboxPerLinkFIFO(t *testing.T) {
	net := topology.Sunway()
	net.SupernodeSize = 2
	mapping := topology.AdjacentMapping{Q: 2}
	order := []int{2, 0, 0, 2, 2, 0}
	// payload i of src is tagged 10*src+i and has its own length, so
	// a reordering would change both the tags and the clocks.
	payload := func(src, i int) []float32 {
		out := make([]float32, 1+2*src+i)
		for j := range out {
			out[j] = float32(10*src + i)
		}
		return out
	}
	want := []float32{20, 0, 1, 21, 22, 2}

	gres, gouts := simnet.NewCluster(net, mapping, 3).RunGather(func(n *simnet.Node) []float32 {
		if n.Rank != 1 {
			for i := 0; i < 3; i++ {
				n.Send(1, payload(n.Rank, i))
			}
			return nil
		}
		var got []float32
		for _, src := range order {
			got = append(got, n.Recv(src)[0])
			n.AdvanceClock(1e-6)
		}
		return got
	})
	dres, douts := NewCluster(net, mapping, 3).RunGather(func(r *Rank) {
		if r.Rank != 1 {
			for i := 0; i < 3; i++ {
				r.Send(1, payload(r.Rank, i))
			}
			r.Finish(nil)
			return
		}
		var got []float32
		var next func(step int)
		next = func(step int) {
			if step == len(order) {
				r.Finish(got)
				return
			}
			r.Recv(order[step], func(data []float32) {
				got = append(got, data[0])
				r.AdvanceClock(1e-6)
				next(step + 1)
			})
		}
		next(0)
	})

	for name, got := range map[string][]float32{"goroutine": gouts[1], "des": douts[1]} {
		if !slices.Equal(got, want) {
			t.Fatalf("%s backend received %v, want %v", name, got, want)
		}
	}
	for i := range gres.Clocks {
		if g, d := gres.Clocks[i], dres.Clocks[i]; g != d {
			t.Fatalf("rank %d clock: des %x, goroutine %x", i, d, g)
		}
	}
	if gres.Time != dres.Time || gres.Msgs != dres.Msgs || gres.CrossMsgs != dres.CrossMsgs ||
		gres.CrossBytes != dres.CrossBytes {
		t.Fatalf("result differs: des %+v, goroutine %+v", dres, gres)
	}
}

// TestRankParksOnceAtATime: a rank whose receive has not yet resumed —
// still parked, or matched with its continuation pending — must not
// park on a second link. Every rank body keeps its receives as tail
// calls, and the scheduler relies on it.
func TestRankParksOnceAtATime(t *testing.T) {
	for _, matched := range []bool{false, true} {
		c := testCluster(3)
		func() {
			defer func() {
				rp, ok := recover().(RankPanic)
				if !ok || rp.FailedRank() != 1 ||
					!strings.Contains(rp.Error(), "second receiver parked on link [2 1]") {
					t.Fatalf("matched=%v: expected second-receiver panic on rank 1, got %v", matched, rp)
				}
			}()
			c.Run(func(r *Rank) {
				switch r.Rank {
				case 0:
					if matched {
						r.Send(1, []float32{1})
					}
				case 1:
					r.Recv(0, func([]float32) {})
					r.Recv(2, func([]float32) {})
					return
				}
				r.Finish(nil)
			})
		}()
	}
}
