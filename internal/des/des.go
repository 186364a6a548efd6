// Package des is the single-threaded discrete-event backend of the
// cluster simulator: the same α+βn cost model and shared-clock rank
// views as internal/simnet, but ranks run as callback continuations on
// one binary-heap event queue instead of one goroutine each. A p=4096
// collective costs zero goroutines, zero channel rendezvous and zero
// OS scheduling — the refactor that makes paper-scale functional
// sweeps (p = 1024/4096) feasible in CI.
//
// Determinism: events are keyed by (simTime, world rank). A rank has
// at most one pending event at a time (see the execution model below),
// so no two events in the heap share a rank and the key is a total
// order without a sequence number: ties on the simulated clock break
// identically on every run and under every GOMAXPROCS. Because the
// collective bodies form a Kahn process network over per-(src,dst)
// FIFO links (blocking receives, data-independent control flow), any
// schedule yields the same floats and clocks — the goroutine backend
// stays the bit-identity oracle at small p, and this backend must
// match it hex-exactly.
//
// Execution model: a rank's program runs inline until it needs a
// message; Recv/SendRecv take an explicit continuation and park the
// rank. Matching a parked receive with a wire always goes through the
// event heap — never by direct call — so the stack fully unwinds
// between hops and depth stays bounded by the rank's own comm-free
// code. Every rank body makes each Recv/SendRecv a tail call, so a
// rank is parked on at most one link, and has at most one pending
// event, at any time: from its park until its continuation runs, a
// rank cannot park again. A second park in that window is a scheduler
// invariant violation worth a panic.
//
// Message path: the per-message cost is what bounds paper-scale sweeps
// (a p=1024 hierarchical all-reduce moves ~526k messages over ~261k
// distinct links), so all message state is kept per rank rather than
// per link. Each rank's entry holds its clock, its parked receive (the
// awaited source and the continuation), the pending event's payload
// and an inbox of unmatched wires in send order. A send matches
// directly when the receiver is parked on its source and otherwise
// appends to the receiver's inbox; a park takes the first inbox wire
// from its source. Either way each (src, dst) link stays FIFO. An
// event is only (time, rank): the continuation and payload wait in the
// rank's entry. The supernode check is made once per message, when the
// wire is posted. The unconsumed-message check is one scan of the
// inboxes that keeps the lowest offending (src, dst), so its panic
// names the same link a sorted walk would.
//
// Per-run state is deliberately not retained: the per-rank entries,
// inboxes, event heap and rank handles are built by each RunGather and
// left to the collector afterwards. Caching them on the Cluster would
// keep the largest run's buffers alive between steps for a saving the
// allocator already makes cheaply.
package des

import (
	"fmt"
	"slices"

	"swcaffe/internal/topology"
)

// Cluster couples a network parameter set, a rank mapping and the
// cluster size for discrete-event collective runs. The fields mirror
// simnet.Cluster so trainer configuration translates one-to-one.
type Cluster struct {
	Net     *topology.Network
	Mapping topology.Mapping
	P       int // number of nodes

	// BytesPerElem is the virtual wire size of one payload element
	// (default 4 = float32), as in simnet.
	BytesPerElem float64

	// ReduceOnCPE selects the CPE-cluster reduction rate.
	ReduceOnCPE bool
}

// NewCluster builds a DES cluster of p nodes.
func NewCluster(net *topology.Network, mapping topology.Mapping, p int) *Cluster {
	if p <= 0 {
		panic("des: cluster size must be positive")
	}
	return &Cluster{Net: net, Mapping: mapping, P: p, BytesPerElem: 4}
}

// linkCost prices one message of elems values on a link whose
// endpoints share a supernode (same) or not.
func (c *Cluster) linkCost(same bool, elems int) (alpha, transfer float64) {
	bytes := int64(float64(elems) * c.BytesPerElem)
	return c.Net.Alpha(bytes), float64(bytes) * c.Net.Beta(same)
}

// wire is one sent message: its payload, the sender's clock at the
// send, its world-rank source and whether the link stays inside a
// supernode (computed once, when the wire is posted).
type wire struct {
	data     []float32
	sendTime float64
	src      int
	same     bool
}

// rankState is everything the scheduler keeps for one world rank. A
// rank is parked on at most one link and has at most one pending event
// at a time, so the parked receive and the pending event's payload fit
// in one entry each. k is set from the park until the event runs;
// waitSrc names the link's source while no wire has matched yet
// (-1 = none). sendElems is the outgoing payload size of a SendRecv
// (-1 for a plain Recv): the full-duplex exchange charges one α+βn for
// the larger direction, so the cost is resolved only when the incoming
// wire is known. inbox holds the wires sent to this rank and not yet
// received, in send order.
type rankState struct {
	clock     float64
	waitSrc   int
	sendElems int
	k         func([]float32)
	data      []float32
	inbox     []wire
}

// event schedules the pending continuation of rank at time; the
// continuation and its payload wait in the rank's state.
type event struct {
	time float64
	rank int
}

// before orders events by (time, rank). A rank has at most one pending
// event, so no two events share a rank and the order is total.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.rank < o.rank
}

// eventHeap is a hand-rolled binary min-heap over (time, rank).
// Sifting moves a hole rather than swapping, so each level costs one
// event copy.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if r := least + 1; r < n && s[r].before(&s[least]) {
			least = r
		}
		if !s[least].before(&last) {
			break
		}
		s[i] = s[least]
		i = least
	}
	if n > 0 {
		s[i] = last
	}
	return top
}

func linkKey(src, dst int) uint64 { return uint64(src)<<32 | uint64(uint32(dst)) }

func unpackKey(key uint64) [2]int { return [2]int{int(key >> 32), int(uint32(key))} }

// runState is the private state of one RunGather: per-rank state, the
// event heap, and the traffic census (plain ints — the whole run is
// one goroutine).
type runState struct {
	cluster  *Cluster
	ranks    []rankState
	heap     eventHeap
	finished int
	results  [][]float32

	msgs       int64
	crossMsgs  int64
	crossBytes int64
}

// Rank is the per-rank handle passed to DES collective bodies: the
// continuation-passing twin of simnet.Node, with the same world/group
// view semantics (InGroup shares the clock and the world-rank link
// namespace; group views do not nest).
type Rank struct {
	Rank    int
	cluster *Cluster
	run     *runState
	st      *rankState // the world rank's scheduler entry, clock included
	group   []int      // nil = world view; else group-rank -> world-rank
	done    bool
}

// Clock returns the rank's logical time in seconds.
func (r *Rank) Clock() float64 { return r.st.clock }

// AdvanceClock adds local computation time.
func (r *Rank) AdvanceClock(dt float64) { r.st.clock += dt }

// P returns the communicator size.
func (r *Rank) P() int {
	if r.group != nil {
		return len(r.group)
	}
	return r.cluster.P
}

// WorldRank returns the rank's world-communicator rank.
func (r *Rank) WorldRank() int { return r.world(r.Rank) }

func (r *Rank) world(x int) int {
	if r.group != nil {
		return r.group[x]
	}
	return x
}

// Mapping exposes the cluster's rank-to-supernode mapping.
func (r *Rank) Mapping() topology.Mapping { return r.cluster.Mapping }

// InGroup returns a sub-communicator view restricted to the ordered
// world-rank subset ranks, sharing this rank's clock — the exact
// contract of simnet.Node.InGroup.
func (r *Rank) InGroup(ranks []int) *Rank {
	if r.group != nil {
		panic("des: nested group views are not supported")
	}
	idx := -1
	for i, wr := range ranks {
		if wr == r.Rank {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("des: rank %d not a member of group %v", r.Rank, ranks))
	}
	return &Rank{Rank: idx, cluster: r.cluster, run: r.run, st: r.st, group: ranks}
}

// post counts a message of data from src to dst and delivers it at the
// sender's current clock: matched at once when dst is parked on src,
// queued in dst's inbox otherwise. A receiver parked on src cannot
// have an earlier wire from src queued (its park would have taken it),
// so either way each link stays FIFO. The supernode check is made once
// here; the wire carries it to the cost function.
func (r *Rank) post(src, dst int, data []float32) (same bool) {
	rs := r.run
	same = topology.SameSupernode(r.cluster.Mapping, src, dst, r.cluster.P)
	rs.msgs++
	if !same {
		rs.crossMsgs++
		rs.crossBytes += int64(float64(len(data)) * r.cluster.BytesPerElem)
	}
	w := wire{data: data, sendTime: r.st.clock, src: src, same: same}
	if st := &rs.ranks[dst]; st.waitSrc == src {
		rs.match(dst, st, w)
	} else {
		st.inbox = append(st.inbox, w)
	}
	return same
}

// Send posts data to peer and occupies the sender for the full α+βn,
// exactly as simnet.Node.Send. It never parks: control returns to the
// caller inline.
func (r *Rank) Send(peer int, data []float32) {
	src, dst := r.WorldRank(), r.world(peer)
	if dst == src {
		panic("des: send to self")
	}
	same := r.post(src, dst, data)
	alpha, transfer := r.cluster.linkCost(same, len(data))
	r.st.clock += alpha + transfer
}

// Recv parks the rank until a message from peer arrives, then resumes
// k with the payload; the clock advances to
// max(local, remote-send) + α + βn first, as simnet.Node.Recv. Code
// after a Recv call runs before the continuation — structure rank
// programs so Recv is a tail call.
func (r *Rank) Recv(peer int, k func([]float32)) {
	r.park(r.world(peer), -1, k)
}

// SendRecv posts sendData to peer and parks for the reply; the
// full-duplex pair charges one α+βn for the larger direction, as
// simnet.Node.SendRecv. k receives the peer's payload.
func (r *Rank) SendRecv(peer int, sendData []float32, k func([]float32)) {
	src, dst := r.WorldRank(), r.world(peer)
	if dst == src {
		panic("des: sendrecv with self")
	}
	r.post(src, dst, sendData)
	r.park(dst, len(sendData), k)
}

// park waits for the next wire from src: the first one already in the
// inbox, or the next one posted. A rank whose previous receive has not
// yet resumed cannot park again.
func (r *Rank) park(src, sendElems int, k func([]float32)) {
	st, dst := r.st, r.WorldRank()
	if st.k != nil {
		panic(fmt.Sprintf("des: second receiver parked on link [%d %d]", src, dst))
	}
	st.k, st.sendElems = k, sendElems
	for i, w := range st.inbox {
		if w.src == src {
			st.inbox = slices.Delete(st.inbox, i, i+1)
			r.run.match(dst, st, w)
			return
		}
	}
	st.waitSrc = src
}

// match resolves dst's parked receive against w and schedules the
// continuation on the heap at the arrival time.
func (rs *runState) match(dst int, st *rankState, w wire) {
	st.waitSrc = -1
	elems := max(len(w.data), st.sendElems)
	alpha, transfer := rs.cluster.linkCost(w.same, elems)
	t := st.clock
	if w.sendTime > t {
		t = w.sendTime
	}
	// Associate exactly as simnet.Recv does — (start + α) + βn — so
	// clocks stay bit-identical to the goroutine backend.
	t = t + alpha + transfer
	st.data = w.data
	rs.heap.push(event{time: t, rank: dst})
}

// ChargeReduce accounts a local elementwise reduction of elems values,
// as simnet.Node.ChargeReduce.
func (r *Rank) ChargeReduce(elems int) {
	bytes := float64(elems) * r.cluster.BytesPerElem
	rate := r.cluster.Net.GammaMPE
	if r.cluster.ReduceOnCPE {
		rate = r.cluster.Net.GammaCPE
	}
	r.st.clock += bytes * rate
}

// Finish records the rank's result and marks its program complete.
// Every rank body must call it exactly once, on the world view, as its
// final act (the DES analogue of returning from a RunGather body).
func (r *Rank) Finish(out []float32) {
	if r.group != nil {
		panic("des: Finish called on a group view")
	}
	if r.done {
		panic(fmt.Sprintf("des: rank %d finished twice", r.Rank))
	}
	r.done = true
	r.run.results[r.Rank] = out
	r.run.finished++
}

// RankPanic is the panic value RunGather re-raises when a rank's body
// panics, mirroring simnet.NodePanic: the original value plus the
// world rank it died on, with the FailedRank method the elastic layer
// matches on.
type RankPanic struct {
	Rank  int
	Value any
}

func (p RankPanic) Error() string {
	return fmt.Sprintf("des: rank panic on rank %d: %v", p.Rank, p.Value)
}

func (p RankPanic) String() string { return p.Error() }

// FailedRank returns the world rank whose body panicked.
func (p RankPanic) FailedRank() int { return p.Rank }

// Unwrap exposes the original panic when it was itself an error.
func (p RankPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Result summarizes one collective run: the same fields and arithmetic
// as simnet.Result, kept as a separate type so des has no dependency
// on the goroutine backend.
type Result struct {
	Time       float64
	Clocks     []float64
	Msgs       int64
	CrossMsgs  int64
	CrossBytes int64
}

// Run executes body on every rank and returns the makespan; the DES
// analogue of simnet.Cluster.Run for bodies without a gathered result
// (bodies still call Finish, with nil).
func (c *Cluster) Run(body func(r *Rank)) Result {
	res, _ := c.RunGather(body)
	return res
}

// RunGather executes body on every rank of a fresh run (zeroed clocks,
// empty links) and drains the event heap to completion. The body runs
// rank code inline until the first park; each rank must eventually
// call Finish with its result. The returned slice is freshly allocated
// per run. A panic in rank code propagates as RankPanic; the run state
// is discarded, so the cluster is reusable afterwards — and unlike the
// goroutine backend, a failed run strands nothing: there are no
// goroutines to leak.
func (c *Cluster) RunGather(body func(r *Rank)) (Result, [][]float32) {
	rs := &runState{
		cluster: c,
		ranks:   make([]rankState, c.P),
		results: make([][]float32, c.P),
	}
	handles := make([]Rank, c.P)
	for i := range handles {
		rs.ranks[i].waitSrc = -1
		handles[i] = Rank{Rank: i, cluster: c, run: rs, st: &rs.ranks[i]}
	}
	for i := range handles {
		seed(&handles[i], body)
	}
	for len(rs.heap) > 0 {
		rs.runEvent(rs.heap.pop())
	}
	if rs.finished != c.P {
		panic(fmt.Sprintf("des: deadlock — %d of %d ranks finished, parked waiters on links %v",
			rs.finished, c.P, rs.parkedLinks()))
	}
	// A completed collective must have consumed every message it sent.
	// The packed key orders links by (src, dst), so keeping the lowest
	// offender makes the panic deterministic without sorting.
	if key, ok := rs.lowestUnconsumed(); ok {
		panic(fmt.Sprintf("des: unconsumed message on link %v", unpackKey(key)))
	}
	res := Result{Clocks: make([]float64, c.P), Msgs: rs.msgs,
		CrossMsgs: rs.crossMsgs, CrossBytes: rs.crossBytes}
	for i := range rs.ranks {
		clock := rs.ranks[i].clock
		res.Clocks[i] = clock
		if clock > res.Time {
			res.Time = clock
		}
	}
	return res, rs.results
}

// lowestUnconsumed returns the smallest packed (src, dst) key of a
// wire left in an inbox.
func (rs *runState) lowestUnconsumed() (uint64, bool) {
	var low uint64
	found := false
	for dst := range rs.ranks {
		for _, w := range rs.ranks[dst].inbox {
			if key := linkKey(w.src, dst); !found || key < low {
				low, found = key, true
			}
		}
	}
	return low, found
}

// parkedLinks lists the (src, dst) links with a parked receiver,
// sorted, for the deadlock diagnostic.
func (rs *runState) parkedLinks() [][2]int {
	var keys []uint64
	for dst := range rs.ranks {
		if src := rs.ranks[dst].waitSrc; src >= 0 {
			keys = append(keys, linkKey(src, dst))
		}
	}
	slices.Sort(keys)
	parked := make([][2]int, len(keys))
	for i, k := range keys {
		parked[i] = unpackKey(k)
	}
	return parked
}

func seed(r *Rank, body func(r *Rank)) {
	defer rewrap(r.Rank)
	body(r)
}

// runEvent resumes the event's rank: its clock jumps to the arrival
// time and its continuation runs on the matched payload. Both are
// cleared from the rank's state first, so they are released and the
// continuation may park again.
func (rs *runState) runEvent(ev event) {
	defer rewrap(ev.rank)
	st := &rs.ranks[ev.rank]
	st.clock = ev.time
	k, data := st.k, st.data
	st.k, st.data = nil, nil
	k(data)
}

// rewrap converts a rank-code panic into RankPanic, preserving an
// already-wrapped value from a nested frame.
func rewrap(rank int) {
	if rec := recover(); rec != nil {
		if rp, ok := rec.(RankPanic); ok {
			panic(rp)
		}
		panic(RankPanic{Rank: rank, Value: rec})
	}
}
