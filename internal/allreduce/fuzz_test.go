package allreduce

import (
	"math"
	"math/rand"
	"testing"

	"swcaffe/internal/des"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// FuzzBackendsAgree runs one randomly shaped collective — p ≤ 64 ranks,
// supernode size q, either mapping, any length, a chunk-aligned segment
// of the packed vector and any built-in algorithm — on both backends.
// Outputs, per-rank clocks, makespan and census must be hex-identical
// between the goroutine and discrete-event runs; on integer payloads
// every rank's output must also equal the exact serial sum. The seed
// corpus lives in testdata/fuzz/FuzzBackendsAgree.
func FuzzBackendsAgree(f *testing.F) {
	f.Add(uint8(7), uint8(3), true, uint16(428), uint8(0), uint8(255), uint8(3), true, int64(1))
	f.Fuzz(func(t *testing.T, pSel, qSel uint8, adjacent bool, nSel uint16, cutA, cutB, algSel uint8, ints bool, seed int64) {
		p := 1 + int(pSel)%64
		q := 1 + int(qSel)%16
		n := int(nSel) % 1200
		var m topology.Mapping = topology.RoundRobinMapping{Q: q}
		if adjacent {
			m = topology.AdjacentMapping{Q: q}
		}
		name := Names()[int(algSel)%len(Names())]
		body, err := BodyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// Cut the segment on the partition the algorithm buckets
		// against: the leader chunks of the hierarchical schedule, the
		// ring chunks otherwise (element-uniform algorithms accept any
		// cut, so the ring partition serves them too).
		k := p
		if name == NameHierarchical {
			k = topology.MinGroupSize(m, p)
		}
		bounds := chunkBounds(n, k)
		c0 := int(cutA) % (k + 1)
		c1 := c0 + int(cutB)%(k+1-c0)
		lo, hi := bounds[c0], bounds[c1]

		inputs := make([][]float32, p)
		rng := rand.New(rand.NewSource(seed))
		for r := range inputs {
			inputs[r] = make([]float32, n)
			for i := range inputs[r] {
				if ints {
					inputs[r][i] = float32(rng.Intn(257) - 128)
				} else {
					inputs[r][i] = float32(rng.NormFloat64())
				}
			}
		}

		net := sunwayQ(q)
		gRes, gOut := simnet.NewCluster(net, m, p).RunGather(func(nd *simnet.Node) []float32 {
			return runBody(nd, body, inputs[nd.Rank][lo:hi], lo, n)
		})
		dRes, dOut := des.NewCluster(net, m, p).RunGather(func(r *des.Rank) {
			body(DESComm(r), inputs[r.Rank][lo:hi], lo, n, r.Finish)
		})
		checkDESMatch(t, name, p, q, hi-lo, gOut, gRes, dOut, dRes)

		if !ints {
			return
		}
		for i := lo; i < hi; i++ {
			var sum float32
			for r := range inputs {
				sum += inputs[r][i]
			}
			for r := range gOut {
				if math.Float32bits(gOut[r][i-lo]) != math.Float32bits(sum) {
					t.Fatalf("%s p=%d q=%d [%d,%d) rank %d elem %d: got %v, serial sum %v",
						name, p, q, lo, hi, r, i, gOut[r][i-lo], sum)
				}
			}
		}
	})
}
