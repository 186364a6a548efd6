// Package des is the single-threaded discrete-event backend of the
// cluster simulator: the same α+βn cost model and shared-clock rank
// views as internal/simnet, but ranks run as callback continuations on
// one binary-heap event queue instead of one goroutine each. A p=4096
// collective costs zero goroutines, zero channel rendezvous and zero
// OS scheduling — the refactor that makes paper-scale functional
// sweeps (p = 1024/4096) feasible in CI.
//
// Determinism: events are keyed by (simTime, world rank, seq) with seq
// a per-run monotonic counter, so ties on the simulated clock break
// identically on every run and under every GOMAXPROCS. Because the
// collective bodies form a Kahn process network over per-(src,dst)
// FIFO links (blocking receives, data-independent control flow), any
// schedule yields the same floats and clocks — the goroutine backend
// stays the bit-identity oracle at small p, and this backend must
// match it hex-exactly.
//
// Execution model: a rank's program runs inline until it needs a
// message; Recv/SendRecv take an explicit continuation and park the
// rank on the link. Matching a parked waiter with a queued wire always
// goes through the event heap — never by direct call — so the stack
// fully unwinds between hops and depth stays bounded by the rank's own
// comm-free code. At most one waiter can be parked per link (each link
// has a single fixed receiver and ranks are sequential); two parked
// waiters on one link is a scheduler invariant violation worth a
// panic.
//
// Message path: the per-message cost is what bounds paper-scale sweeps
// (a p=1024 hierarchical all-reduce moves ~526k messages), so the path
// is kept allocation-light. Links live in a per-run open-addressing
// table keyed by the packed (src, dst) pair, whose link values sit in
// pointer-stable blocks; the parked waiter is stored by value in its
// link; an event carries its (clock, continuation, payload) directly
// instead of a closure built per match. The unconsumed-message check is
// one scan that keeps the lowest offending (src, dst), so its panic
// names the same link a sorted walk would.
//
// Per-run state is deliberately not retained: the link table, event
// heap and rank handles are built by each RunGather and left to the
// collector afterwards. Caching them on the Cluster would keep every
// link of the largest run alive between steps (at p=1024 that more than
// doubles a trainer's live heap) for a saving the allocator already
// makes cheaply.
package des

import (
	"fmt"
	"math/bits"
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

func (c *Cluster) linkCost(a, b int, elems int) (alpha, transfer float64) {
	bytes := int64(float64(elems) * c.BytesPerElem)
	same := topology.SameSupernode(c.Mapping, a, b, c.P)
	return c.Net.Alpha(bytes), float64(bytes) * c.Net.Beta(same)
}

type wire struct {
	data     []float32
	sendTime float64
}

// waiter is a rank parked on a link waiting for a wire. sendElems is
// the outgoing payload size of a SendRecv (-1 for a plain Recv): the
// full-duplex exchange charges one α+βn for the larger direction, so
// the cost is resolved only when the incoming wire is known. The zero
// waiter (nil clock) means no receiver is parked.
type waiter struct {
	rank      int // world rank, for the event tie-break key
	clock     *float64
	sendElems int
	k         func([]float32)
}

// link is one directed (src, dst) FIFO. head indexes the first
// undelivered wire so delivery is O(1) without reslicing churn; w is
// the parked receiver, held by value.
type link struct {
	queue []wire
	head  int
	w     waiter
}

func (l *link) parked() bool { return l.w.clock != nil }

// event is one scheduled continuation: at time, set *clock = time and
// resume k with data.
type event struct {
	time  float64
	rank  int
	seq   int64
	clock *float64
	k     func([]float32)
	data  []float32
}

// before orders events by (time, rank, seq); seq is unique per run,
// so the order is total.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	if e.rank != o.rank {
		return e.rank < o.rank
	}
	return e.seq < o.seq
}

// eventHeap is a hand-rolled binary min-heap over (time, rank, seq).
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
	s[n] = event{} // release the continuation and payload
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

// linkBlock is the number of links allocated together; blocks never
// move, so a *link stays valid while the table grows.
const linkBlock = 256

// linkSlot is one open-addressing slot: a packed (src, dst) key and the
// 1-based index of its link in the blocks (0 = empty).
type linkSlot struct {
	key uint64
	ref uint32
}

// linkTable maps a directed (src, dst) pair to its link: linear probing
// over a power-of-two slot array with Fibonacci hashing of the packed
// key. The slots hold no pointers, so the collector never scans them.
type linkTable struct {
	slots  []linkSlot
	shift  uint // 64 - log2(len(slots))
	blocks [][]link
	n      int
}

func linkKey(src, dst int) uint64 { return uint64(src)<<32 | uint64(uint32(dst)) }

func unpackKey(key uint64) [2]int { return [2]int{int(key >> 32), int(uint32(key))} }

func (t *linkTable) at(ref uint32) *link {
	i := int(ref - 1)
	return &t.blocks[i/linkBlock][i%linkBlock]
}

func (t *linkTable) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the link of (src, dst), creating it on first use.
func (t *linkTable) get(src, dst int) *link {
	key := linkKey(src, dst)
	if mask := len(t.slots) - 1; mask > 0 {
		for i := t.home(key); t.slots[i].ref != 0; i = (i + 1) & mask {
			if t.slots[i].key == key {
				return t.at(t.slots[i].ref)
			}
		}
	}
	if 4*(t.n+1) > 3*len(t.slots) { // keep the load factor at most 3/4
		t.grow()
	}
	if t.n%linkBlock == 0 {
		t.blocks = append(t.blocks, make([]link, linkBlock))
	}
	t.n++
	ref := uint32(t.n)
	t.insert(key, ref)
	return t.at(ref)
}

func (t *linkTable) insert(key uint64, ref uint32) {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = linkSlot{key: key, ref: ref}
}

func (t *linkTable) grow() {
	old := t.slots
	size := max(2*len(old), 64)
	t.slots = make([]linkSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, sl := range old {
		if sl.ref != 0 {
			t.insert(sl.key, sl.ref)
		}
	}
}

// runState is the private state of one RunGather: links, the event
// heap, and the traffic census (plain ints — the whole run is one
// goroutine).
type runState struct {
	cluster  *Cluster
	links    linkTable
	heap     eventHeap
	seq      int64
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
	clock   *float64
	group   []int // nil = world view; else group-rank -> world-rank
	done    bool
}

// Clock returns the rank's logical time in seconds.
func (r *Rank) Clock() float64 { return *r.clock }

// AdvanceClock adds local computation time.
func (r *Rank) AdvanceClock(dt float64) { *r.clock += dt }

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
	return &Rank{Rank: idx, cluster: r.cluster, run: r.run, clock: r.clock, group: ranks}
}

func (r *Rank) countMsg(src, dst, elems int) {
	r.run.msgs++
	if !topology.SameSupernode(r.cluster.Mapping, src, dst, r.cluster.P) {
		r.run.crossMsgs++
		r.run.crossBytes += int64(float64(elems) * r.cluster.BytesPerElem)
	}
}

// Send posts data to peer and occupies the sender for the full α+βn,
// exactly as simnet.Node.Send. It never parks: control returns to the
// caller inline.
func (r *Rank) Send(peer int, data []float32) {
	src, dst := r.WorldRank(), r.world(peer)
	if dst == src {
		panic("des: send to self")
	}
	alpha, transfer := r.cluster.linkCost(src, dst, len(data))
	r.countMsg(src, dst, len(data))
	l := r.run.links.get(src, dst)
	l.queue = append(l.queue, wire{data: data, sendTime: *r.clock})
	*r.clock += alpha + transfer
	if l.parked() {
		r.run.match(src, dst, l)
	}
}

// Recv parks the rank until a message from peer arrives, then resumes
// k with the payload; the clock advances to
// max(local, remote-send) + α + βn first, as simnet.Node.Recv. Code
// after a Recv call runs before the continuation — structure rank
// programs so Recv is a tail call.
func (r *Rank) Recv(peer int, k func([]float32)) {
	src, dst := r.world(peer), r.WorldRank()
	r.park(src, dst, -1, k)
}

// SendRecv posts sendData to peer and parks for the reply; the
// full-duplex pair charges one α+βn for the larger direction, as
// simnet.Node.SendRecv. k receives the peer's payload.
func (r *Rank) SendRecv(peer int, sendData []float32, k func([]float32)) {
	src, dst := r.WorldRank(), r.world(peer)
	if dst == src {
		panic("des: sendrecv with self")
	}
	r.countMsg(src, dst, len(sendData))
	l := r.run.links.get(src, dst)
	l.queue = append(l.queue, wire{data: sendData, sendTime: *r.clock})
	if l.parked() {
		r.run.match(src, dst, l)
	}
	r.park(dst, src, len(sendData), k)
}

func (r *Rank) park(src, dst, sendElems int, k func([]float32)) {
	l := r.run.links.get(src, dst)
	if l.parked() {
		panic(fmt.Sprintf("des: second receiver parked on link [%d %d]", src, dst))
	}
	l.w = waiter{rank: r.WorldRank(), clock: r.clock, sendElems: sendElems, k: k}
	if l.head < len(l.queue) {
		r.run.match(src, dst, l)
	}
}

// match resolves the link's parked waiter against its head wire and
// schedules the continuation on the heap at the arrival time.
func (rs *runState) match(src, dst int, l *link) {
	w := l.w
	l.w = waiter{}
	m := l.queue[l.head]
	l.queue[l.head] = wire{}
	l.head++
	if l.head == len(l.queue) {
		l.queue, l.head = l.queue[:0], 0
	}
	elems := len(m.data)
	if w.sendElems > elems {
		elems = w.sendElems
	}
	alpha, transfer := rs.cluster.linkCost(src, dst, elems)
	t := *w.clock
	if m.sendTime > t {
		t = m.sendTime
	}
	// Associate exactly as simnet.Recv does — (start + α) + βn — so
	// clocks stay bit-identical to the goroutine backend.
	t = t + alpha + transfer
	rs.heap.push(event{time: t, rank: w.rank, seq: rs.seq, clock: w.clock, k: w.k, data: m.data})
	rs.seq++
}

// ChargeReduce accounts a local elementwise reduction of elems values,
// as simnet.Node.ChargeReduce.
func (r *Rank) ChargeReduce(elems int) {
	bytes := float64(elems) * r.cluster.BytesPerElem
	rate := r.cluster.Net.GammaMPE
	if r.cluster.ReduceOnCPE {
		rate = r.cluster.Net.GammaCPE
	}
	*r.clock += bytes * rate
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
		results: make([][]float32, c.P),
	}
	ranks := make([]*Rank, c.P)
	for i := range ranks {
		ranks[i] = &Rank{Rank: i, cluster: c, run: rs, clock: new(float64)}
	}
	for _, r := range ranks {
		seed(r, body)
	}
	for len(rs.heap) > 0 {
		runEvent(rs.heap.pop())
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
	for i, r := range ranks {
		res.Clocks[i] = *r.clock
		if *r.clock > res.Time {
			res.Time = *r.clock
		}
	}
	return res, rs.results
}

// lowestUnconsumed returns the smallest packed (src, dst) key of a
// link with undelivered wires.
func (rs *runState) lowestUnconsumed() (uint64, bool) {
	var low uint64
	found := false
	for _, sl := range rs.links.slots {
		if sl.ref == 0 || (found && sl.key >= low) {
			continue
		}
		if l := rs.links.at(sl.ref); l.head < len(l.queue) {
			low, found = sl.key, true
		}
	}
	return low, found
}

// parkedLinks lists the (src, dst) keys with a parked waiter, sorted,
// for the deadlock diagnostic.
func (rs *runState) parkedLinks() [][2]int {
	var keys []uint64
	for _, sl := range rs.links.slots {
		if sl.ref != 0 && rs.links.at(sl.ref).parked() {
			keys = append(keys, sl.key)
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

func runEvent(ev event) {
	defer rewrap(ev.rank)
	*ev.clock = ev.time
	ev.k(ev.data)
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
