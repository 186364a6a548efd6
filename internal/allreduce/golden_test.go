package allreduce

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

// The all-reduce golden pins every built-in algorithm on the goroutine
// backend: a digest of every rank's output floats, every rank's clock,
// the makespan and the traffic census, as hex, for the full vector and
// for a chunk-aligned two-segment split, under both rank mappings.
// Floats are random (not integers), so the digest pins each element's
// association order, not just its value. Regenerate with
//
//	go test ./internal/allreduce -run TestAllreduceGolden -update
//
// only for an intentional change to a schedule or the cost model.

var update = flag.Bool("update", false, "rewrite testdata golden files from the current code")

const allreduceGoldenPath = "testdata/allreduce.golden"

// goldenQ is the supernode size of every golden shape: p = 1..4 fit in
// one supernode, 5 and 10 leave a ragged tail group, 8 and 16 span two
// and four full supernodes.
const goldenQ = 4

var (
	goldenPs      = []int{1, 2, 3, 4, 5, 8, 10, 16}
	goldenLengths = []int{0, 1, 7, 428}
)

// segmentFunc runs one algorithm over the [lo, lo+len(data)) segment of
// a total-element packed vector.
type segmentFunc func(n *simnet.Node, data []float32, lo, total int) []float32

// goldenAlgorithms lists the four built-ins with the chunk count of the
// partition their segments must respect (element-uniform algorithms
// accept any cut; they are split on the ring's partition).
func goldenAlgorithms() []struct {
	name   string
	run    segmentFunc
	chunks func(m topology.Mapping, p int) int
} {
	ringChunks := func(_ topology.Mapping, p int) int { return p }
	return []struct {
		name   string
		run    segmentFunc
		chunks func(m topology.Mapping, p int) int
	}{
		{NameRing, RingSegment, ringChunks},
		{NameBinomial, func(n *simnet.Node, data []float32, _, _ int) []float32 {
			return BinomialTree(n, data)
		}, ringChunks},
		{NameRHD, func(n *simnet.Node, data []float32, _, _ int) []float32 {
			return RecursiveHalvingDoubling(n, data)
		}, ringChunks},
		{NameHierarchical, HierarchicalSegment, topology.MinGroupSize},
	}
}

// goldenLine runs one segment on a fresh goroutine cluster and renders
// its observable result as one line.
func goldenLine(label string, net *topology.Network, m topology.Mapping, p int, inputs [][]float32, run segmentFunc, lo, hi, total int) string {
	cl := simnet.NewCluster(net, m, p)
	res, outs := cl.RunGather(func(n *simnet.Node) []float32 {
		return run(n, inputs[n.Rank][lo:hi], lo, total)
	})
	h := fnv.New64a()
	var word [4]byte
	for _, out := range outs {
		if len(out) != hi-lo {
			panic(fmt.Sprintf("%s: rank returned %d elems, want %d", label, len(out), hi-lo))
		}
		for _, v := range out {
			b := math.Float32bits(v)
			word[0], word[1], word[2], word[3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
			h.Write(word[:])
		}
	}
	clocks := make([]string, len(res.Clocks))
	for i, c := range res.Clocks {
		clocks[i] = strconv.FormatFloat(c, 'x', -1, 64)
	}
	return fmt.Sprintf("%s [%d,%d) digest=%016x time=%s msgs=%d cross=%d crossB=%d clocks=%s",
		label, lo, hi, h.Sum64(), strconv.FormatFloat(res.Time, 'x', -1, 64),
		res.Msgs, res.CrossMsgs, res.CrossBytes, strings.Join(clocks, ","))
}

// allreduceGolden renders the whole golden table.
func allreduceGolden() []byte {
	var buf bytes.Buffer
	net := sunwayQ(goldenQ)
	for _, alg := range goldenAlgorithms() {
		for _, m := range []topology.Mapping{topology.AdjacentMapping{Q: goldenQ}, topology.RoundRobinMapping{Q: goldenQ}} {
			for _, p := range goldenPs {
				for _, n := range goldenLengths {
					inputs := randInputs(p, n)
					label := fmt.Sprintf("%s %s p=%d q=%d n=%d", alg.name, m.Name(), p, goldenQ, n)
					fmt.Fprintln(&buf, goldenLine(label+" full", net, m, p, inputs, alg.run, 0, n, n))
					bounds := chunkBounds(n, alg.chunks(m, p))
					cut := bounds[len(bounds)/2]
					fmt.Fprintln(&buf, goldenLine(label+" seg", net, m, p, inputs, alg.run, 0, cut, n))
					fmt.Fprintln(&buf, goldenLine(label+" seg", net, m, p, inputs, alg.run, cut, n, n))
				}
			}
		}
	}
	return buf.Bytes()
}

// TestAllreduceGolden compares every algorithm × mapping × shape ×
// length × segment run against testdata/allreduce.golden byte for
// byte.
func TestAllreduceGolden(t *testing.T) {
	got := allreduceGolden()
	if *update {
		if err := os.WriteFile(allreduceGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(allreduceGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\ngot  %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden has %d lines, run produced %d", len(wl), len(gl))
}
