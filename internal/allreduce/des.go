package allreduce

import (
	"fmt"
	"sync/atomic"

	"swcaffe/internal/des"
	"swcaffe/internal/topology"
)

// Discrete-event forms of the collective bodies: exact continuation-
// passing transliterations of the blocking algorithms above, for the
// single-threaded internal/des backend. Every arithmetic operation,
// accumulation order, copy-vs-reference payload decision and
// ChargeReduce call site matches the blocking body line for line —
// the collectives are Kahn process networks (per-link FIFOs, blocking
// receives, data-independent control flow), so any schedule produces
// the same floats, and the goroutine backend stays the bit-identity
// oracle these forms are tested against hex-exactly.
//
// Control-flow convention: a Recv/SendRecv is always in tail position;
// loop bodies become recursive closures stepping the loop index, and
// the final continuation k receives the finished vector. Iterations
// that skip communication recurse directly (depth bounded by p, fine
// at the p=4096 scale the backend exists for). The hierarchical
// tournament phases, which carry most of a paper-scale run's messages,
// instead keep the loop index outside one reusable continuation, so a
// round costs no closure allocation.

// AlgorithmDES is the DES counterpart of Algorithm: every rank calls
// it with its local vector, and k fires with the elementwise sum once
// the rank's schedule completes. Implementations must not modify the
// input slice.
type AlgorithmDES func(r *des.Rank, data []float32, k func([]float32))

// ByNameDES returns the DES form of a named built-in algorithm.
func ByNameDES(name string) (AlgorithmDES, error) {
	switch Canonical(name) {
	case NameRing:
		return RingDES, nil
	case NameBinomial:
		return BinomialTreeDES, nil
	case NameRHD:
		return RecursiveHalvingDoublingDES, nil
	case NameHierarchical:
		return HierarchicalDES, nil
	default:
		return nil, fmt.Errorf("allreduce: unknown algorithm %q (valid: %v)", name, Names())
	}
}

// RingDES is the DES form of Ring.
func RingDES(r *des.Rank, data []float32, k func([]float32)) {
	RingSegmentDES(r, data, 0, len(data), k)
}

// RingSegmentDES is the DES form of RingSegment: the full ring's
// per-chunk rotation schedule restricted to the segment, reduced in
// the identical association order.
func RingSegmentDES(r *des.Rank, data []float32, lo, total int, k func([]float32)) {
	p := r.P()
	out := append([]float32(nil), data...)
	if p == 1 {
		k(out)
		return
	}
	hi := lo + len(data)
	bounds := chunkBounds(total, p)
	c0, c1 := 0, p
	if lo != 0 || hi != total {
		c0 = chunkIndexAt(bounds, lo)
		c1 = chunkIndexAt(bounds, hi)
	}
	inSeg := func(c int) bool { return c0 <= c && c < c1 }

	rank := r.Rank
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p

	var rsStep, agStep func(s int)
	rsStep = func(s int) {
		if s == p-1 {
			agStep(0)
			return
		}
		sendIdx := ((rank-s)%p + p) % p
		recvIdx := ((rank-s-1)%p + p) % p
		if inSeg(sendIdx) {
			slo, shi := bounds[sendIdx]-lo, bounds[sendIdx+1]-lo
			chunk := append([]float32(nil), out[slo:shi]...)
			r.Send(next, chunk)
		}
		if inSeg(recvIdx) {
			r.Recv(prev, func(in []float32) {
				rlo := bounds[recvIdx] - lo
				for i, v := range in {
					out[rlo+i] += v
				}
				r.ChargeReduce(len(in))
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
		sendIdx := ((rank+1-s)%p + p) % p
		recvIdx := ((rank-s)%p + p) % p
		if inSeg(sendIdx) {
			slo, shi := bounds[sendIdx]-lo, bounds[sendIdx+1]-lo
			chunk := append([]float32(nil), out[slo:shi]...)
			r.Send(next, chunk)
		}
		if inSeg(recvIdx) {
			r.Recv(prev, func(in []float32) {
				copy(out[bounds[recvIdx]-lo:], in)
				agStep(s + 1)
			})
			return
		}
		agStep(s + 1)
	}
	rsStep(0)
}

// BinomialTreeDES is the DES form of BinomialTree.
func BinomialTreeDES(r *des.Rank, data []float32, k func([]float32)) {
	p := r.P()
	out := append([]float32(nil), data...)
	rank := r.Rank

	// Broadcast phase: climb to the first set bit (the parent link),
	// then replay the down-send ladder from there. downSend contains no
	// receives, so it runs inline.
	downSend := func(mask int) {
		for ; mask > 0; mask >>= 1 {
			if rank+mask < p && rank&(mask-1) == 0 && rank&mask == 0 {
				r.Send(rank+mask, out)
			}
		}
		k(out)
	}
	bcast := func() {
		mask := 1
		for mask < p {
			if rank&mask != 0 {
				m := mask
				r.Recv(rank-m, func(res []float32) {
					copy(out, res)
					downSend(m >> 1)
				})
				return
			}
			mask <<= 1
		}
		downSend(mask >> 1)
	}

	// Reduce phase (binomial reduce to root 0); a rank that ships to
	// its parent breaks straight to the broadcast, as the blocking form
	// does. The up-send is by reference, as in the blocking form.
	var reduce func(mask int)
	reduce = func(mask int) {
		if mask >= p {
			bcast()
			return
		}
		if rank&mask != 0 {
			r.Send(rank-mask, out)
			bcast()
			return
		}
		if rank+mask < p {
			r.Recv(rank+mask, func(in []float32) {
				for i, v := range in {
					out[i] += v
				}
				r.ChargeReduce(len(in))
				reduce(mask << 1)
			})
			return
		}
		reduce(mask << 1)
	}
	reduce(1)
}

// RecursiveHalvingDoublingDES is the DES form of
// RecursiveHalvingDoubling. Like the blocking body it runs on world
// and group views alike — the hierarchical schedule's leader phase
// calls it on an InGroup view.
func RecursiveHalvingDoublingDES(r *des.Rank, data []float32, k func([]float32)) {
	p := r.P()
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
	rank := r.Rank

	// Fold: excess ranks ship their vector down and wait for the final
	// result.
	if rank >= pow2 {
		r.Send(rank-pow2, out)
		r.Recv(rank-pow2, func(res []float32) {
			copy(out, res)
			k(out)
		})
		return
	}

	core := func() {
		padded := len(out)
		if padded%pow2 != 0 {
			padded += pow2 - padded%pow2
		}
		work := make([]float32, padded)
		copy(work, out)

		type span struct{ off, cnt, peer, d int }
		var history []span
		off, cnt := 0, padded

		finish := func() {
			copy(out, work[:len(out)])
			if rank < rem {
				r.Send(rank+pow2, out)
			}
			k(out)
		}

		// Allgather by recursive doubling: replay the halving history
		// in reverse.
		var double func(i int)
		double = func(i int) {
			if i < 0 {
				finish()
				return
			}
			h := history[i]
			chunk := append([]float32(nil), work[h.off:h.off+h.cnt]...)
			r.SendRecv(h.peer, chunk, func(in []float32) {
				var otherOff int
				if rank&h.d == 0 {
					otherOff = h.off + h.cnt
				} else {
					otherOff = h.off - h.cnt
				}
				copy(work[otherOff:otherOff+h.cnt], in)
				double(i - 1)
			})
		}

		// Reduce-scatter by recursive halving.
		var halve func(d int)
		halve = func(d int) {
			if d < 1 {
				double(len(history) - 1)
				return
			}
			peer := rank ^ d
			half := cnt / 2
			var sendOff, keepOff int
			if rank&d == 0 {
				sendOff, keepOff = off+half, off
			} else {
				sendOff, keepOff = off, off+half
			}
			chunk := append([]float32(nil), work[sendOff:sendOff+half]...)
			r.SendRecv(peer, chunk, func(in []float32) {
				for i, v := range in {
					work[keepOff+i] += v
				}
				r.ChargeReduce(half)
				history = append(history, span{off: keepOff, cnt: half, peer: peer, d: d})
				off, cnt = keepOff, half
				halve(d / 2)
			})
		}
		halve(pow2 / 2)
	}

	if rank < rem {
		r.Recv(rank+pow2, func(in []float32) {
			for i, v := range in {
				out[i] += v
			}
			r.ChargeReduce(len(in))
			core()
		})
		return
	}
	core()
}

// HierarchicalDES is the DES form of Hierarchical.
func HierarchicalDES(r *des.Rank, data []float32, k func([]float32)) {
	HierarchicalSegmentDES(r, data, 0, len(data), k)
}

// HierarchicalSegmentDES is the DES form of HierarchicalSegment: the
// same three-phase schedule (intra-supernode tournament
// reduce-scatter, leader RHD over InGroup views, intra-supernode
// tournament allgather) with the identical chunk partition and
// association order, firing the DES phase hook at each boundary.
func HierarchicalSegmentDES(r *des.Rank, data []float32, lo, total int, k func([]float32)) {
	hierPhaseDES(r, HierIntraReduceScatter)
	out := append([]float32(nil), data...)
	p := r.P()
	if p == 1 {
		k(out)
		return
	}
	groups := topology.Members(r.Mapping(), p)
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

	rank := r.Rank
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

	chunkAt := func(c int) (int, int) { return bounds[c] - lo, bounds[c+1] - lo }
	chunkLive := func(c int) bool {
		if c < c0 || c >= c1 {
			return false
		}
		clo, chi := chunkAt(c)
		return clo != chi
	}
	g := len(group)

	// tournament runs one intra-supernode phase as the blocking form's
	// round loop: each round with a live chunk on either side ships
	// send(pt) to partner pt and hands the reply to recv, then done
	// fires. The loop state lives outside the continuation, so one
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
					r.SendRecv(group[pt], send(pt), next)
					return
				}
			}
			done()
		}
		step()
	}

	// Phase C: intra-supernode allgather tournament; finished chunks
	// are sent by reference, receivers copy out — as the blocking form.
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
		hierPhaseDES(r, HierAllgather)
		tournament(sendC, recvC, func() { k(out) })
	}

	// Phase B: RHD among chunk c's leaders on an InGroup view (j == c
	// for at most one chunk of this rank).
	var phaseB func(c int)
	phaseB = func(c int) {
		if c >= c1 {
			startC()
			return
		}
		if j != c {
			phaseB(c + 1)
			return
		}
		clo, chi := chunkAt(c)
		if clo == chi {
			phaseB(c + 1)
			return
		}
		leaders := make([]int, len(groups))
		for s, gg := range groups {
			leaders[s] = gg[c]
		}
		if len(leaders) > 1 {
			sub := r.InGroup(leaders)
			RecursiveHalvingDoublingDES(sub, out[clo:chi], func(red []float32) {
				copy(out[clo:chi], red)
				phaseB(c + 1)
			})
			return
		}
		phaseB(c + 1)
	}
	startB := func() {
		hierPhaseDES(r, HierLeaderRHD)
		phaseB(c0)
	}

	// Phase A: intra-supernode reduce-scatter tournament; sends are
	// views of the caller's unmodified data, owner j accumulates in
	// tournament-round order — as the blocking form.
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
			r.ChargeReduce(len(in))
		}
	}
	tournament(sendA, recvA, startB)
}

// hierPhaseHookDES is the DES twin of hierPhaseHook: it fires on every
// rank at each phase boundary of HierarchicalSegmentDES. Atomic for
// symmetry with the goroutine hook (tests install both together).
var hierPhaseHookDES atomic.Pointer[func(r *des.Rank, phase HierPhase)]

// SetHierPhaseHookDES installs (or, with nil, removes) the DES
// hierarchical phase hook and returns the previous one.
func SetHierPhaseHookDES(h func(r *des.Rank, phase HierPhase)) (prev func(r *des.Rank, phase HierPhase)) {
	var p *func(r *des.Rank, phase HierPhase)
	if h != nil {
		p = &h
	}
	if old := hierPhaseHookDES.Swap(p); old != nil {
		return *old
	}
	return nil
}

func hierPhaseDES(r *des.Rank, phase HierPhase) {
	if h := hierPhaseHookDES.Load(); h != nil {
		(*h)(r, phase)
	}
}
