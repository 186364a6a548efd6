package allreduce

import "swcaffe/internal/des"

// Discrete-event entry points. A des.Rank already has Comm's
// continuation-passing Send/Recv/SendRecv, so the built-in bodies run
// on it as they are; the adapter only adds the rank-index method and a
// group view typed as Comm (des.Rank.InGroup returns the concrete
// *des.Rank). Wrapping the rank pointer in a one-word struct keeps the
// conversion to Comm allocation-free.

// rankComm adapts a DES rank to Comm.
type rankComm struct{ *des.Rank }

func (r rankComm) Index() int { return r.Rank.Rank }

func (r rankComm) InGroup(ranks []int) Comm { return rankComm{r.Rank.InGroup(ranks)} }

// DESComm returns the Comm view of a discrete-event rank.
func DESComm(r *des.Rank) Comm { return rankComm{r} }

// HierarchicalDES runs the hierarchical all-reduce on a discrete-event
// rank; k receives the reduced vector.
func HierarchicalDES(r *des.Rank, data []float32, k func([]float32)) {
	hierarchicalSegment(rankComm{r}, data, 0, len(data), k)
}
