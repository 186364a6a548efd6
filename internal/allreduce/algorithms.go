// Package allreduce implements the gradient-synchronization
// collectives of swCaffe (paper Sec. V-A): the ring and binomial-tree
// baselines, the MPICH recursive-halving/recursive-doubling
// all-reduce, and the paper's topology-aware improvement, which is the
// same algorithm run under a round-robin rank-to-supernode mapping so
// that the heavy early rounds stay inside supernodes. It also provides
// the closed-form α-β-γ cost functions (Eqns. 2–6) that the paper uses
// to justify the redesign, and the gradient-packing utilities.
package allreduce

import (
	"fmt"

	"swcaffe/internal/simnet"
)

// Algorithm is a collective all-reduce body: every rank calls it with
// its local vector; on return every rank holds the elementwise sum
// over all ranks. Implementations must not modify the input slice.
type Algorithm func(n *simnet.Node, data []float32) []float32

// Algorithm names for harness output.
const (
	NameRing         = "ring"
	NameBinomial     = "binomial-tree"
	NameRHD          = "recursive-halving-doubling"
	NameHierarchical = "hierarchical"
)

// Names lists the registered all-reduce algorithms — the spellings
// ByName accepts (CLIs print this when rejecting an unknown name).
func Names() []string {
	return []string{NameRing, NameBinomial, NameRHD, NameHierarchical}
}

// Canonical resolves CLI shorthand to a registered algorithm name
// ("hier" → "hierarchical", "rhd" → the full MPICH spelling); other
// strings, including the empty default, pass through unchanged.
func Canonical(name string) string {
	switch name {
	case "hier":
		return NameHierarchical
	case "rhd":
		return NameRHD
	}
	return name
}

// BodyByName returns the continuation-passing body of a named
// built-in algorithm, the form both backends run.
func BodyByName(name string) (Body, error) {
	switch Canonical(name) {
	case NameRing:
		return ringSegment, nil
	case NameBinomial:
		return binomialTree, nil
	case NameRHD:
		return recursiveHalvingDoubling, nil
	case NameHierarchical:
		return hierarchicalSegment, nil
	default:
		return nil, fmt.Errorf("allreduce: unknown algorithm %q (valid: %v)", name, Names())
	}
}

// ByName returns the blocking goroutine-backend form of a named
// built-in algorithm over a whole vector.
func ByName(name string) (Algorithm, error) {
	body, err := BodyByName(name)
	if err != nil {
		return nil, err
	}
	return func(n *simnet.Node, data []float32) []float32 {
		return runBody(n, body, data, 0, len(data))
	}, nil
}

// runBody runs body over the [lo, lo+len(data)) segment on a blocking
// node.
func runBody(n *simnet.Node, body Body, data []float32, lo, total int) []float32 {
	return OnNode(n, func(c Comm, k func([]float32)) { body(c, data, lo, total, k) })
}

// --- ring ---------------------------------------------------------------

// Ring is the bandwidth-optimal ring all-reduce (paper ref [15]):
// p-1 reduce-scatter steps plus p-1 allgather steps moving n/p chunks
// around a logical ring. Its latency term is 2(p-1)α, which the paper
// rejects for the high-latency Sunway network.
func Ring(n *simnet.Node, data []float32) []float32 {
	return RingSegment(n, data, 0, len(data))
}

// RingSegment runs the ring all-reduce restricted to the chunks of a
// larger packed vector that the segment [lo, lo+len(data)) covers.
// total is the packed vector's full length; the segment's bounds must
// both lie on ChunkBounds(total, p) (the engine's chunk-aligned
// bucketing guarantees this — RingSegment panics otherwise).
//
// Each chunk c of the full ring is reduced by a rotation that folds
// rank values in the fixed order c, c+1, ..., c-1 (mod p) — an order
// that depends on the chunk index, which is why the plain ring is not
// element-uniform and naive bucketing breaks bit-identity. RingSegment
// executes exactly the full ring's per-chunk schedule (step s: send
// chunk (r-s) mod p, receive and reduce chunk (r-s-1) mod p), skipping
// the steps whose chunk falls outside the segment. Every element is
// therefore reduced with precisely the association order the one-shot
// Ring over the whole packed vector would use, so flushing a gradient
// bucket per segment is bit-identical to the barrier ring — the
// primitive behind the collective engine's ring overlap. With
// lo=0, total=len(data) the schedule degenerates to the classic ring.
func RingSegment(n *simnet.Node, data []float32, lo, total int) []float32 {
	return runBody(n, ringSegment, data, lo, total)
}

// ringSegment is the body of RingSegment.
func ringSegment(c Comm, data []float32, lo, total int, k func([]float32)) {
	p := c.P()
	out := append([]float32(nil), data...)
	if p == 1 {
		k(out)
		return
	}
	hi := lo + len(data)
	bounds := chunkBounds(total, p)
	// The whole-vector segment is all p chunks (including empty ones,
	// which the classic ring still circulates); interior segments
	// resolve their chunk range from the bounds.
	c0, c1 := 0, p
	if lo != 0 || hi != total {
		c0 = chunkIndexAt(bounds, lo)
		c1 = chunkIndexAt(bounds, hi)
	}
	inSeg := func(ch int) bool { return c0 <= ch && ch < c1 }

	r := c.Index()
	next := (r + 1) % p
	prev := (r - 1 + p) % p

	// Reduce-scatter: in step s, send chunk (r-s) to the next rank and
	// receive + reduce chunk (r-s-1) from the previous one — when the
	// chunk belongs to this segment. Allgather: circulate the finished
	// chunks around the ring.
	var rsStep, agStep func(s int)
	rsStep = func(s int) {
		if s == p-1 {
			agStep(0)
			return
		}
		sendIdx := ((r-s)%p + p) % p
		recvIdx := ((r-s-1)%p + p) % p
		if inSeg(sendIdx) {
			slo, shi := bounds[sendIdx]-lo, bounds[sendIdx+1]-lo
			c.Send(next, append([]float32(nil), out[slo:shi]...))
		}
		if inSeg(recvIdx) {
			c.Recv(prev, func(in []float32) {
				rlo := bounds[recvIdx] - lo
				for i, v := range in {
					out[rlo+i] += v
				}
				c.ChargeReduce(len(in))
				rsStep(s + 1)
			})
			return
		}
		rsStep(s + 1)
	}
	agStep = func(s int) {
		if s == p-1 {
			k(out)
			return
		}
		sendIdx := ((r+1-s)%p + p) % p
		recvIdx := ((r-s)%p + p) % p
		if inSeg(sendIdx) {
			slo, shi := bounds[sendIdx]-lo, bounds[sendIdx+1]-lo
			c.Send(next, append([]float32(nil), out[slo:shi]...))
		}
		if inSeg(recvIdx) {
			c.Recv(prev, func(in []float32) {
				copy(out[bounds[recvIdx]-lo:], in)
				agStep(s + 1)
			})
			return
		}
		agStep(s + 1)
	}
	rsStep(0)
}

// chunkIndexAt returns the chunk index whose lower bound equals off,
// panicking when off does not lie on a chunk boundary (a bucket that
// was not chunk-aligned). Repeated bounds (empty chunks, total < p)
// resolve to the first chunk starting at off.
func chunkIndexAt(bounds []int, off int) int {
	for c, b := range bounds {
		if b == off {
			return c
		}
		if b > off {
			break
		}
	}
	panic(fmt.Sprintf("allreduce: segment bound %d not on a chunk boundary %v", off, bounds))
}

func chunkBounds(n, p int) []int {
	b := make([]int, p+1)
	for i := 0; i <= p; i++ {
		b[i] = i * n / p
	}
	return b
}

// ChunkBounds exposes the ring's chunk partition of an n-element
// vector over p ranks: chunk i spans [b[i], b[i+1]). The collective
// engine snaps ring bucket boundaries onto these bounds so each bucket
// is a whole number of ring chunks (see RingSegment).
func ChunkBounds(n, p int) []int { return chunkBounds(n, p) }

// --- binomial tree -------------------------------------------------------

// BinomialTree reduces to rank 0 up a binomial tree and broadcasts the
// result back down: 2·log p rounds each moving the full vector. This
// is the naive MPI_Reduce + MPI_Bcast composition.
func BinomialTree(n *simnet.Node, data []float32) []float32 {
	return runBody(n, binomialTree, data, 0, len(data))
}

// binomialTree is the body of BinomialTree.
func binomialTree(c Comm, data []float32, _, _ int, k func([]float32)) {
	p := c.P()
	out := append([]float32(nil), data...)
	r := c.Index()

	// Broadcast phase (MPICH binomial bcast from root 0): climb to the
	// first set bit (the parent link), then replay the down-send ladder
	// from there. downSend contains no receives, so it runs inline.
	downSend := func(mask int) {
		for ; mask > 0; mask >>= 1 {
			if r+mask < p && r&(mask-1) == 0 && r&mask == 0 {
				c.Send(r+mask, out)
			}
		}
		k(out)
	}
	bcast := func() {
		mask := 1
		for mask < p {
			if r&mask != 0 {
				m := mask
				c.Recv(r-m, func(res []float32) {
					copy(out, res)
					downSend(m >> 1)
				})
				return
			}
			mask <<= 1
		}
		downSend(mask >> 1)
	}

	// Reduce phase (MPICH binomial reduce to root 0); a rank that ships
	// to its parent breaks straight to the broadcast. The up-send is by
	// reference.
	var reduce func(mask int)
	reduce = func(mask int) {
		if mask >= p {
			bcast()
			return
		}
		if r&mask != 0 {
			c.Send(r-mask, out)
			bcast()
			return
		}
		if r+mask < p {
			c.Recv(r+mask, func(in []float32) {
				for i, v := range in {
					out[i] += v
				}
				c.ChargeReduce(len(in))
				reduce(mask << 1)
			})
			return
		}
		reduce(mask << 1)
	}
	reduce(1)
}

// --- recursive halving / doubling ----------------------------------------

// RecursiveHalvingDoubling is the Rabenseifner all-reduce of MPICH
// (paper ref [14]) that swCaffe adopts: a reduce-scatter by recursive
// halving followed by an allgather by recursive doubling, giving a
// 2·log p latency term and the bandwidth-optimal 2n(p-1)/p volume.
// Non-power-of-two sizes fold the excess ranks onto the power-of-two
// core first (and unfold at the end). The topology awareness of the
// paper's improved version comes entirely from the cluster's rank
// mapping: under topology.RoundRobinMapping the large early halving
// exchanges (distance pow2/2, ..., p/q) stay inside one supernode.
func RecursiveHalvingDoubling(n *simnet.Node, data []float32) []float32 {
	return runBody(n, recursiveHalvingDoubling, data, 0, len(data))
}

// recursiveHalvingDoubling is the body of RecursiveHalvingDoubling. It
// runs on world and group views alike: the hierarchical schedule's
// leader phase calls it on an InGroup view.
func recursiveHalvingDoubling(c Comm, data []float32, _, _ int, k func([]float32)) {
	p := c.P()
	out := append([]float32(nil), data...)
	if p == 1 {
		k(out)
		return
	}
	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	rem := p - pow2
	r := c.Index()

	// Fold: ranks >= pow2 ship their vector to (rank - pow2) and wait
	// for the final result.
	if r >= pow2 {
		c.Send(r-pow2, out)
		c.Recv(r-pow2, func(res []float32) {
			copy(out, res)
			k(out)
		})
		return
	}

	core := func() {
		// Pad the working vector to a multiple of pow2 so halving is
		// exact.
		padded := len(out)
		if padded%pow2 != 0 {
			padded += pow2 - padded%pow2
		}
		work := make([]float32, padded)
		copy(work, out)

		// The halving rounds push the span they keep; the doubling
		// rounds pop them. h is the exchange in flight. The loop state
		// lives outside the two continuations, so a round allocates no
		// closure.
		type span struct{ off, cnt, peer, d int }
		var history []span
		var h span
		off, cnt := 0, padded

		// Allgather by recursive doubling: replay the halving history in
		// reverse. At each step the rank owns exactly the span it kept at
		// the matching halving step; the peer owns the complementary
		// half of the parent span. Then unfold: ship the finished result
		// to the folded partner.
		var double func()
		doubled := func(in []float32) {
			otherOff := h.off - h.cnt
			if r&h.d == 0 { // we kept the lower half, peer has the upper
				otherOff = h.off + h.cnt
			}
			copy(work[otherOff:otherOff+h.cnt], in)
			double()
		}
		double = func() {
			if len(history) == 0 {
				copy(out, work[:len(out)])
				if r < rem {
					c.Send(r+pow2, out)
				}
				k(out)
				return
			}
			h = history[len(history)-1]
			history = history[:len(history)-1]
			c.SendRecv(h.peer, append([]float32(nil), work[h.off:h.off+h.cnt]...), doubled)
		}

		// Reduce-scatter by recursive halving: exchange with peers at
		// distance pow2/2, pow2/4, ..., 1, halving the live span each
		// time.
		var halve func()
		halved := func(in []float32) {
			for i, v := range in {
				work[h.off+i] += v
			}
			c.ChargeReduce(h.cnt)
			history = append(history, h)
			off, cnt = h.off, h.cnt
			halve()
		}
		halve = func() {
			d := pow2 >> (len(history) + 1)
			if d < 1 {
				double()
				return
			}
			half := cnt / 2
			h = span{off: off + half, cnt: half, peer: r ^ d, d: d}
			sendOff := off
			if r&d == 0 {
				h.off, sendOff = off, off+half
			}
			c.SendRecv(h.peer, append([]float32(nil), work[sendOff:sendOff+half]...), halved)
		}
		halve()
	}

	if r < rem {
		c.Recv(r+pow2, func(in []float32) {
			for i, v := range in {
				out[i] += v
			}
			c.ChargeReduce(len(in))
			core()
		})
		return
	}
	core()
}
