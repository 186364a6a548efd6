package allreduce

import (
	"fmt"

	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// Topology-hierarchical all-reduce (ROADMAP "Hierarchical / q-aware
// collectives"). The paper's fix for the over-subscribed inter-
// supernode links is a rank *renumbering* that keeps RHD's heavy
// rounds inside supernodes; this schedule restructures the algorithm
// itself so that only the irreducible n/q bytes per node ever cross a
// supernode boundary, under either mapping:
//
//	phase A  intra-supernode reduce-scatter: the vector is split into
//	         K = MinGroupSize chunks; every member ships chunk j to
//	         its group's j-th member, who accumulates them in member
//	         order — all traffic on full-bandwidth Beta1 links.
//	phase B  inter-supernode RHD among the chunk leaders: the j-th
//	         members of every supernode (the supernode's leader for
//	         chunk j) run recursive halving/doubling over their n/K
//	         chunk — the only phase that touches Beta2 links, and the
//	         K leader groups carry disjoint 1/K-sized shares of it.
//	phase C  intra-supernode allgather: each leader fans its finished
//	         chunk back out to its group, again on Beta1 links.
//
// Degenerate shapes fold into the flat algorithms: one supernode
// (p <= q) makes phase B a no-op, and q = 1 makes every rank a
// single-member group so phase B is exactly the flat RHD.

// Hierarchical is the topology-hierarchical all-reduce. The supernode
// membership comes from the cluster's mapping (see topology.Members),
// so the schedule is topology-correct under both the adjacent and the
// round-robin numbering without any renumbering trick.
func Hierarchical(n *simnet.Node, data []float32) []float32 {
	return HierarchicalSegment(n, data, 0, len(data))
}

// HierarchicalSegment runs the hierarchical all-reduce restricted to
// the chunks of a larger packed vector that the segment
// [lo, lo+len(data)) covers; total is the packed vector's full length.
// Like RingSegment, the segment's bounds must lie on the algorithm's
// chunk partition — HierChunkBounds(total, K) with K the mapping's
// MinGroupSize — because chunk j's association order (leader j's own
// value, then the remaining group members in ascending order, then
// the RHD tree over supernodes) depends on the chunk index. Each
// bucket executes exactly the full schedule's per-chunk plan, so
// flushing a gradient bucket per segment is bit-identical to the
// barrier Hierarchical over the whole packed vector — the primitive
// behind the collective engine's hierarchical overlap. With lo=0,
// total=len(data) the schedule degenerates to the one-shot form.
func HierarchicalSegment(n *simnet.Node, data []float32, lo, total int) []float32 {
	return runBody(n, hierarchicalSegment, data, lo, total)
}

// hierarchicalSegment is the body of HierarchicalSegment. It fires the
// phase hook (see SetHierPhaseHook) at each phase boundary.
func hierarchicalSegment(c Comm, data []float32, lo, total int, k func([]float32)) {
	hierPhase(c, HierIntraReduceScatter)
	out := append([]float32(nil), data...)
	p := c.P()
	if p == 1 {
		k(out)
		return
	}
	groups := topology.Members(c.Mapping(), p)
	K := len(groups[0])
	for _, g := range groups {
		if len(g) < K {
			K = len(g)
		}
	}
	hi := lo + len(data)
	bounds := chunkBounds(total, K)
	c0, c1 := 0, K
	if lo != 0 || hi != total {
		c0 = chunkIndexAt(bounds, lo)
		c1 = chunkIndexAt(bounds, hi)
	}

	// Locate this rank within its physical supernode group.
	rank := c.Index()
	var group []int
	j := -1
	for _, g := range groups {
		for i, m := range g {
			if m == rank {
				j, group = i, g
				break
			}
		}
		if group != nil {
			break
		}
	}
	if group == nil {
		panic(fmt.Sprintf("allreduce: rank %d missing from supernode groups %v", rank, groups))
	}

	chunkAt := func(ch int) (int, int) { return bounds[ch] - lo, bounds[ch+1] - lo }
	// chunkLive reports whether chunk ch carries traffic in this call:
	// it exists (ch < K), falls in the segment, and is non-empty. The
	// predicate is the same on both ends of an exchange, so partners
	// always agree on whether to meet.
	chunkLive := func(ch int) bool {
		if ch < c0 || ch >= c1 {
			return false
		}
		clo, chi := chunkAt(ch)
		return clo != chi
	}
	g := len(group)

	// tournament runs one intra-supernode phase as a round-robin
	// tournament of pairwise exchanges — every pair of members meets
	// exactly once per phase, and the full-duplex SendRecv charges one
	// α+βn for the pair. Each round with a live chunk on either side
	// ships send(pt) to partner pt and hands the reply to recv, then
	// done fires. The loop state lives outside the continuation, so one
	// closure serves every round instead of one per message.
	tournament := func(send func(pt int) []float32, recv func(pt int, in []float32), done func()) {
		round, pt := 0, 0
		var step func()
		next := func(in []float32) {
			recv(pt, in)
			round++
			step()
		}
		step = func() {
			for ; round < tournamentRounds(g); round++ {
				pt = tournamentPartner(j, round, g)
				if pt >= 0 && (chunkLive(pt) || chunkLive(j)) {
					c.SendRecv(group[pt], send(pt), next)
					return
				}
			}
			done()
		}
		step()
	}

	// Phase C: intra-supernode allgather, the same tournament in
	// reverse roles — each exchange hands over the two partners'
	// finished chunks, so every member leaves with every chunk after
	// g-1 rounds. The finished chunk is sent by reference: its owner
	// never rewrites it within this run, and receivers copy out.
	sendC := func(int) []float32 {
		if !chunkLive(j) {
			return nil
		}
		clo, chi := chunkAt(j)
		return out[clo:chi]
	}
	recvC := func(pt int, in []float32) {
		if chunkLive(pt) {
			plo, _ := chunkAt(pt)
			copy(out[plo:], in)
		}
	}
	startC := func() {
		hierPhase(c, HierAllgather)
		tournament(sendC, recvC, func() { k(out) })
	}

	// Phase B: recursive halving/doubling among chunk ch's leaders —
	// the ch-th member of every supernode (K = min group size, so every
	// group has one) — on an InGroup view. The leader groups are
	// disjoint rank sets running concurrently, each over its own 1/K
	// share of the vector; j == ch for at most one chunk of this rank.
	var phaseB func(ch int)
	phaseB = func(ch int) {
		if ch >= c1 {
			startC()
			return
		}
		if j != ch {
			phaseB(ch + 1)
			return
		}
		clo, chi := chunkAt(ch)
		if clo == chi || len(groups) == 1 {
			phaseB(ch + 1)
			return
		}
		leaders := make([]int, len(groups))
		for s, gg := range groups {
			leaders[s] = gg[ch]
		}
		recursiveHalvingDoubling(c.InGroup(leaders), out[clo:chi], 0, chi-clo, func(red []float32) {
			copy(out[clo:chi], red)
			phaseB(ch + 1)
		})
	}
	startB := func() {
		hierPhase(c, HierLeaderRHD)
		phaseB(c0)
	}

	// Phase A: intra-supernode reduce-scatter tournament. In the
	// exchange (j, pt), j ships its data for chunk pt and receives pt's
	// contribution to chunk j; owner j therefore accumulates peer
	// contributions in tournament-round order — a fixed association
	// schedule shared by the barrier form and every segment. Sends are
	// views of the caller's data, not of out: phase A writes only chunk
	// j of out, so chunk pt holds the same floats in both, but phase C
	// overwrites out's chunks before a buffered message is necessarily
	// consumed, while data is never modified. The clipped capacity
	// keeps receivers from appending into the caller's vector.
	sendA := func(pt int) []float32 {
		if !chunkLive(pt) {
			return nil
		}
		plo, phi := chunkAt(pt)
		return data[plo:phi:phi]
	}
	recvA := func(_ int, in []float32) {
		if chunkLive(j) {
			clo, _ := chunkAt(j)
			for x, v := range in {
				out[clo+x] += v
			}
			c.ChargeReduce(len(in))
		}
	}
	tournament(sendA, recvA, startB)
}

// tournamentRounds returns the round count of the all-pairs exchange
// schedule over g members: g-1 for even g, g for odd g (the circle
// method adds a bye slot).
func tournamentRounds(g int) int {
	if g%2 == 0 {
		return g - 1
	}
	return g
}

// tournamentPartner returns member j's partner in round r of the
// round-robin tournament over g members (the circle method: member
// G-1 fixed, the rest rotating), or -1 when j sits out the round (the
// bye of an odd-sized group). Every pair of members meets in exactly
// one round, so each phase of the hierarchical schedule exchanges
// every chunk exactly once per pair over full-duplex links.
func tournamentPartner(j, r, g int) int {
	if g < 2 {
		return -1
	}
	G := g
	if G%2 == 1 {
		G++ // dummy bye slot
	}
	var pt int
	if j == G-1 {
		pt = r % (G - 1)
	} else {
		pos := ((j-r)%(G-1) + (G - 1)) % (G - 1)
		if pos == 0 {
			pt = G - 1
		} else {
			pt = (G - 1 - pos + r) % (G - 1)
		}
	}
	if pt >= g {
		return -1 // partnered with the bye slot
	}
	return pt
}

// HierChunkBounds exposes the hierarchical schedule's chunk partition
// of an n-element vector: k chunks (k = topology.MinGroupSize of the
// active mapping), chunk c spanning [b[c], b[c+1]). The collective
// engine snaps hierarchical bucket boundaries onto these bounds so
// each bucket is a whole number of leader-owned chunks (see
// HierarchicalSegment).
func HierChunkBounds(n, k int) []int { return chunkBounds(n, k) }
