package allreduce

import (
	"fmt"
	"testing"

	"swcaffe/internal/des"
	"swcaffe/internal/topology"
)

// paperGrads is the per-rank gradient length of the paper-scale
// workload's net (428 floats).
const paperGrads = 428

// integerInputs builds small integer-valued vectors, so any summation
// order yields the exact serial sum.
func integerInputs(p, length int) [][]float32 {
	inputs := make([][]float32, p)
	for r := range inputs {
		inputs[r] = make([]float32, length)
		for i := range inputs[r] {
			inputs[r][i] = float32((r*7 + i) % 5)
		}
	}
	return inputs
}

// TestHierarchicalDESPaperScaleGolden runs the hierarchical all-reduce
// on the event backend at the paper's scale (q = 256) for a full and a
// ragged world, and pins the outputs to the exact serial sum, the
// traffic census and the makespan. At ~500k messages per run every
// rank's inbox is filled and drained many times over.
func TestHierarchicalDESPaperScaleGolden(t *testing.T) {
	cases := []struct {
		p                   int
		msgs, cross, crossB int64
		makespan            string
	}{
		{1024, 526336, 4096, 24576, "0x1.94c047ff76326p-11"},
		{1000, 499264, 3712, 22272, "0x1.94c047ff76326p-11"},
	}
	for _, tc := range cases {
		inputs := integerInputs(tc.p, paperGrads)
		want := make([]float32, paperGrads)
		for _, in := range inputs {
			for i, v := range in {
				want[i] += v
			}
		}
		out, res := gatherDES(topology.Sunway(), topology.AdjacentMapping{Q: 256}, tc.p, inputs, HierarchicalDES)
		for r := range out {
			if len(out[r]) != paperGrads {
				t.Fatalf("p=%d rank %d: %d elems, want %d", tc.p, r, len(out[r]), paperGrads)
			}
			for i := range want {
				if out[r][i] != want[i] {
					t.Fatalf("p=%d rank %d elem %d: got %v want %v", tc.p, r, i, out[r][i], want[i])
				}
			}
		}
		if res.Msgs != tc.msgs || res.CrossMsgs != tc.cross || res.CrossBytes != tc.crossB {
			t.Fatalf("p=%d census (%d,%d,%d), want (%d,%d,%d)", tc.p,
				res.Msgs, res.CrossMsgs, res.CrossBytes, tc.msgs, tc.cross, tc.crossB)
		}
		if got := fmt.Sprintf("%x", res.Time); got != tc.makespan {
			t.Fatalf("p=%d makespan %s, want %s", tc.p, got, tc.makespan)
		}
	}
}

// TestHierarchicalDES1024AllocBudget bounds the heap allocations of one
// hierarchical all-reduce on the event backend at the paper-scale
// shape. The run is single-threaded, so its malloc count is
// deterministic; about 51k allocations fit well inside the budget,
// while a per-link or per-message allocation (~260k links, ~526k
// messages) would break it.
func TestHierarchicalDES1024AllocBudget(t *testing.T) {
	const p, budget = 1024, 100_000
	cl := des.NewCluster(topology.Sunway(), topology.AdjacentMapping{Q: 256}, p)
	inputs := integerInputs(p, paperGrads)
	allocs := testing.AllocsPerRun(1, func() {
		cl.RunGather(func(r *des.Rank) { HierarchicalDES(r, inputs[r.Rank], r.Finish) })
	})
	t.Logf("%.0f allocations per p=%d hierarchical all-reduce (budget %d)", allocs, p, budget)
	if allocs > budget {
		t.Fatalf("%.0f allocations per all-reduce, budget %d", allocs, budget)
	}
}

// BenchmarkHierarchicalDES1024 times one hierarchical all-reduce on the
// event backend at the paper-scale workload's shape: p = 1024 over four
// adjacent-mapped supernodes of 256, 428 floats per rank.
func BenchmarkHierarchicalDES1024(b *testing.B) {
	const p = 1024
	cl := des.NewCluster(topology.Sunway(), topology.AdjacentMapping{Q: 256}, p)
	inputs := integerInputs(p, paperGrads)
	b.ReportAllocs()
	for b.Loop() {
		cl.RunGather(func(r *des.Rank) { HierarchicalDES(r, inputs[r.Rank], r.Finish) })
	}
}
