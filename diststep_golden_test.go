package swcaffe

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"testing"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/collective"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/tensor"
	"swcaffe/internal/topology"
	"swcaffe/internal/train"
)

// The DistStep golden pins the modeled numbers of the benchmark
// trainer (benchNet, SubBatch 8) on the goroutine backend: StepTime,
// Compute, Comm, Exposed, the traffic census, the final loss and the
// strategy the engine ran, as hex, after the same warm step plus one
// measured step the DistStep benchmarks take. The stock network rows
// "q256 barrier rhd" and "q256 overlap rhd" are the 676.8 / 636.7
// µs/step the benchmarks report. Regenerate with
//
//	go test . -run TestDistStepGolden -update
//
// only for an intentional change to the timing model.

var updateDistStep = flag.Bool("update", false, "rewrite testdata/diststep.golden from the current code")

const distStepGoldenPath = "testdata/diststep.golden"

// distStepShapes are the (nodes, network, mapping) settings the golden
// covers: the stock q = 256 machine (all four nodes in one supernode),
// two-node supernodes (the hierarchical bench setting), and a ragged
// p = 10 over q = 4 world whose last supernode holds two nodes.
func distStepShapes() []struct {
	name    string
	nodes   int
	network *topology.Network
	mapping topology.Mapping
} {
	qNet := func(q int) *topology.Network {
		n := topology.Sunway()
		n.SupernodeSize = q
		return n
	}
	return []struct {
		name    string
		nodes   int
		network *topology.Network
		mapping topology.Mapping
	}{
		{"q256", 4, nil, nil},
		{"q2", 4, qNet(2), topology.AdjacentMapping{Q: 2}},
		{"p10q4", 10, qNet(4), topology.AdjacentMapping{Q: 4}},
	}
}

// distStepLine trains one configuration for two steps and renders the
// second step's modeled numbers.
func distStepLine(t *testing.T, label string, cfg train.DistConfig) string {
	t.Helper()
	build := func() (*core.Net, map[string]*tensor.Tensor, error) {
		net, inputs := benchNet(8)
		return net, inputs, nil
	}
	cfg.SubBatch = 8
	cfg.Solver = core.SolverConfig{BaseLR: 0.01, Momentum: 0.9}
	d, err := train.NewDistTrainer(cfg, build)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer d.Close()
	ds := dataset.NewClusters(512, 4, 1, 8, 8, 0.3, 7)
	d.LoadShards(ds, 0)
	d.Step()
	d.LoadShards(ds, 1)
	loss := d.Step()
	s := d.LastStep
	hx := func(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
	return fmt.Sprintf("%s strategy=%s step=%s compute=%s comm=%s exposed=%s msgs=%d cross=%d crossB=%d loss=%s",
		label, d.Engine().StrategyName(), hx(s.StepTime), hx(s.Compute), hx(s.Comm), hx(s.Exposed),
		s.Msgs, s.CrossMsgs, s.CrossBytes, strconv.FormatFloat(float64(loss), 'x', -1, 32))
}

// TestDistStepGolden compares the modeled DistStep numbers of barrier
// and overlap × ring/RHD/hierarchical/auto on every shape against
// testdata/diststep.golden byte for byte.
func TestDistStepGolden(t *testing.T) {
	var buf bytes.Buffer
	algs := []string{allreduce.NameRing, allreduce.NameRHD, allreduce.NameHierarchical, collective.NameAuto}
	for _, sh := range distStepShapes() {
		for _, overlap := range []bool{false, true} {
			mode := "barrier"
			if overlap {
				mode = "overlap"
			}
			for _, alg := range algs {
				cfg := train.DistConfig{Nodes: sh.nodes, Network: sh.network, Mapping: sh.mapping,
					AlgorithmName: alg, Overlap: overlap}
				if overlap {
					cfg.BucketBytes = 8 << 10
				}
				label := fmt.Sprintf("%s %s %s", sh.name, mode, allreduce.Canonical(alg))
				fmt.Fprintln(&buf, distStepLine(t, label, cfg))
			}
		}
	}
	got := buf.Bytes()
	if *updateDistStep {
		if err := os.WriteFile(distStepGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(distStepGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("modeled DistStep numbers changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
