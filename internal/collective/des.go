package collective

import (
	"swcaffe/internal/allreduce"
	"swcaffe/internal/des"
	"swcaffe/internal/simnet"
)

// Discrete-event flush path. The engine's bucket layout, staging,
// commit protocol and attribution are backend-agnostic, and so is the
// collective: the one flush body (Engine.reduce, the strategy's
// all-reduce written once against allreduce.Comm) runs here on the
// ranks of a des.Cluster instead of on simnet rank goroutines. A
// custom Config.Algorithm body is a blocking function with no
// discrete-event form, so the trainer refuses to combine one with the
// DES backend, and allreduce.BlockingBody backstops that with a panic.

// FlushSegDES runs bucket b's collective over every rank of the DES
// cluster and returns the makespan/census (as a simnet.Result, so
// Commit works unchanged) and the per-rank reduced outputs.
func (e *Engine) FlushSegDES(c *des.Cluster, b int) (simnet.Result, [][]float32) {
	return e.flushDES(c, b)
}

// FlushFullDES runs the barrier flush over every rank of the DES
// cluster.
func (e *Engine) FlushFullDES(c *des.Cluster) (simnet.Result, [][]float32) {
	return e.flushDES(c, -1)
}

// flushDES runs reduce for bucket b (the whole vector when b < 0) on
// every DES rank.
func (e *Engine) flushDES(c *des.Cluster, b int) (simnet.Result, [][]float32) {
	views := e.views
	r, outs := c.RunGather(func(r *des.Rank) {
		e.reduce(allreduce.DESComm(r), b, views[r.Rank], r.Finish)
	})
	return simnet.Result{Time: r.Time, Clocks: r.Clocks,
		Msgs: r.Msgs, CrossMsgs: r.CrossMsgs, CrossBytes: r.CrossBytes}, outs
}
