package allreduce

import (
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// Each built-in all-reduce is written once, in continuation-passing
// form against Comm, and runs unchanged on both cluster backends:
//
//   - internal/des, the single-threaded discrete-event backend, whose
//     ranks already take a continuation on every receive (DESComm).
//   - internal/simnet, the goroutine backend, whose receives block.
//     OnNode runs a body on a node through a trampoline: a receive
//     blocks the rank's goroutine, stores the continuation and the
//     payload, and returns; the driver loop then calls the stored
//     continuation. The goroutine stack stays flat however many
//     messages the schedule exchanges.
//
// Control-flow convention: a Recv/SendRecv is always a body's last act
// (a tail call), so a rank waits on at most one message at a time, and
// the continuation receives the payload. Loop bodies become recursive
// closures stepping the loop index; iterations that skip communication
// recurse directly (depth bounded by p). The RHD rounds and the
// hierarchical tournament phases, which carry most of a paper-scale
// run's messages, instead keep their loop state outside one reusable
// continuation per phase, so a round costs no closure allocation.
//
// The collectives are Kahn process networks (per-link FIFOs, blocking
// receives, data-independent control flow), so both backends produce
// the same floats, clocks and traffic census; testdata/allreduce.golden
// and the serial sum pin the floats, and FuzzBackendsAgree checks that
// the backends agree with each other. The goroutine backend stays the
// only failure oracle: fault injection, caller-supplied blocking
// bodies (BlockingBody) and host-math training run only there.

// Comm is the per-rank communicator an all-reduce body runs on: a
// world view of one rank or a group view from InGroup, sharing the
// rank's clock and its world-rank link namespace.
type Comm interface {
	// P is the communicator size; Index is this rank's index in it
	// (the world rank on a world view); WorldRank is always the world
	// rank.
	P() int
	Index() int
	WorldRank() int
	Clock() float64
	Mapping() topology.Mapping
	// Send posts data to peer and returns once the sender's α+βn is
	// charged. The payload is shared, not copied.
	Send(peer int, data []float32)
	// Recv and SendRecv hand the peer's payload to k. They must be the
	// caller's last act: on the goroutine backend k runs after the
	// caller returns.
	Recv(peer int, k func([]float32))
	SendRecv(peer int, data []float32, k func([]float32))
	ChargeReduce(elems int)
	// InGroup returns the view restricted to the ordered world-rank
	// subset ranks; group views do not nest.
	InGroup(ranks []int) Comm
}

// Body is an all-reduce over the segment [lo, lo+len(data)) of a packed
// vector of total elements: every rank calls it with its local segment,
// and k receives the elementwise sum over all ranks. Bodies must not
// modify data. Element-uniform algorithms ignore lo and total.
type Body func(c Comm, data []float32, lo, total int, k func([]float32))

// nodeComm adapts a blocking simnet node to Comm. Group views point at
// their world view, which holds the rank's one pending continuation
// and, once the body finishes, its result.
type nodeComm struct {
	*simnet.Node
	world *nodeComm
	k     func([]float32)
	in    []float32
	out   []float32
	done  bool
}

func (c *nodeComm) Index() int { return c.Rank }

func (c *nodeComm) InGroup(ranks []int) Comm {
	return &nodeComm{Node: c.Node.InGroup(ranks), world: c.world}
}

func (c *nodeComm) Recv(peer int, k func([]float32)) { c.park(k, c.Node.Recv(peer)) }

func (c *nodeComm) SendRecv(peer int, data []float32, k func([]float32)) {
	c.park(k, c.Node.SendRecv(peer, data))
}

// park stores the continuation of a completed receive for OnNode's
// driver loop.
func (c *nodeComm) park(k func([]float32), in []float32) {
	w := c.world
	if w.k != nil {
		panic("allreduce: a receive that is not the body's last act")
	}
	w.k, w.in = k, in
}

// OnNode runs a continuation-passing collective on a goroutine-backend
// node and returns what run passes to its final continuation.
func OnNode(n *simnet.Node, run func(c Comm, k func([]float32))) []float32 {
	c := &nodeComm{Node: n}
	c.world = c
	run(c, c.finish)
	for c.k != nil {
		k, in := c.k, c.in
		c.k, c.in = nil, nil
		k(in)
	}
	if !c.done {
		panic("allreduce: collective body returned without finishing")
	}
	return c.out
}

func (c *nodeComm) finish(out []float32) { c.out, c.done = out, true }

// BlockingBody adapts a blocking Algorithm — a caller-supplied custom
// body — to a Body. It has no discrete-event form: there is no thread
// to block, so on any Comm other than OnNode's it panics.
func BlockingBody(alg Algorithm) Body {
	return func(c Comm, data []float32, _, _ int, k func([]float32)) {
		nc, ok := c.(*nodeComm)
		if !ok {
			panic("allreduce: custom algorithm bodies are blocking and run only on the goroutine backend")
		}
		k(alg(nc.Node, data))
	}
}
