package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/des"
	"swcaffe/internal/experiments"
	"swcaffe/internal/models"
	"swcaffe/internal/perf"
	"swcaffe/internal/simnet"
	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/topology"
)

// The module probes call each module's public functions from outside,
// at the workload's own shapes: one replica of its net, its packed
// gradient length, its largest parameter. The collective probes keep
// the topology their name gives — hierarchical DES at the paper's
// p = 1024 over 4 supernodes, goroutine RHD at p = 8 over 2 — so each
// reads the cost one all-reduce of this workload's gradient would pay
// there.
const (
	probeReps = 7
	probeMin  = 2 * time.Millisecond
)

func (b *bench) probeModules(m metrics) error {
	net, in, err := b.sp.replica()
	if err != nil {
		return err
	}
	m.put("core.replica_build_ms", "ms", 1e3*probe(5, 0, func() {
		if _, _, err := b.sp.replica(); err != nil {
			panic(err)
		}
	}))
	ds := b.dataset()
	m.put("dataset.batch_ms", "ms", 1e3*probe(probeReps, probeMin, func() {
		dataset.Batch(ds, 0, in["data"], in["label"])
	}))
	m.put("core.forward_ms", "ms", 1e3*probe(probeReps, probeMin, func() { net.Forward(core.Train) }))
	net.ZeroParamDiffs()
	m.put("core.backward_ms", "ms", 1e3*probe(probeReps, probeMin, func() {
		net.ZeroParamDiffs()
		net.Backward(core.Train)
	}))
	var buf []float32
	m.put("core.pack_us", "us", 1e6*probe(probeReps, probeMin, func() { buf = net.PackGradients(buf) }))
	solver := core.NewSolver(net, solverCfg)
	m.put("core.solver_update_us", "us", 1e6*probe(probeReps, probeMin, solver.ApplyUpdate))

	// One CPE-mesh gradient summation at the largest parameter length,
	// as CG0 runs it once per peer CG and parameter in node-cg4.
	largest := 0
	for _, p := range net.LearnableParams() {
		largest = max(largest, p.Diff.Len())
	}
	cg := sw26010.NewCoreGroup(sw26010.Default())
	acc, add := make([]float32, largest), make([]float32, largest)
	m.put("swdnn.sum_run_us", "us", 1e6*probe(probeReps, probeMin, func() { swdnn.SumRun(cg, acc, add) }))
	cg.Close()

	grads := len(buf)
	paper := topology.AdjacentMapping{Q: 256}
	hierMs, hierMB := probeHierDES(grads, paper)
	m.put("allreduce.hier_des_ms", "ms", hierMs)
	m.put("allreduce.hier_des_alloc_mb", "MB", hierMB)
	m.put("allreduce.rhd_goroutine_ms", "ms", 1e3*probeRHD(grads))
	m.put("topology.members_us", "us", 1e6*probe(probeReps, probeMin, func() { topology.Members(paper, 1024) }))
	return nil
}

// probeHierDES times one hierarchical all-reduce of elems per rank on
// the discrete-event backend at p = 1024 over 4 supernodes, and the
// bytes it allocates; medians of three runs.
func probeHierDES(elems int, mapping topology.Mapping) (msMedian, mbMedian float64) {
	const p = 1024
	cl := des.NewCluster(topology.Sunway(), mapping, p)
	inputs := make([][]float32, p)
	for r := range inputs {
		inputs[r] = make([]float32, elems)
		inputs[r][r%elems] = 1
	}
	var times, allocs []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		cl.RunGather(func(r *des.Rank) { allreduce.HierarchicalDES(r, inputs[r.Rank], r.Finish) })
		times = append(times, 1e3*time.Since(t0).Seconds())
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
	}
	return median(times), median(allocs)
}

// probeRHD times one recursive halving/doubling all-reduce of elems per
// rank over goroutine simnet ranks at p = 8, two supernodes of 4.
func probeRHD(elems int) float64 {
	network := topology.Sunway()
	network.SupernodeSize = 4
	cl := simnet.NewCluster(network, topology.AdjacentMapping{Q: 4}, 8)
	inputs := make([][]float32, 8)
	for r := range inputs {
		inputs[r] = make([]float32, elems)
	}
	return probe(probeReps, probeMin, func() {
		cl.RunGather(func(n *simnet.Node) []float32 {
			return allreduce.RecursiveHalvingDoubling(n, inputs[n.Rank])
		})
	})
}

// paperNets are the paper's nets whose modeled per-layer costs the
// benchmark reports, at the Table III batch sizes.
var paperNets = []struct{ model, metric string }{
	{"alexnet-bn", "alexnet"},
	{"vgg16", "vgg16"},
	{"resnet50", "resnet50"},
}

// modelRows prices every layer of the paper's nets with the swdnn
// planners behind perf.NewSWCG, puts each net's forward and backward
// totals (modeled milliseconds) into m, and returns the per-layer
// rows as tab-separated text.
func modelRows(m metrics) (string, error) {
	batches := make(map[string]int)
	for _, w := range experiments.Table3Workloads() {
		batches[w.Model] = w.Batch
	}
	dev := perf.NewSWCG()
	var sb strings.Builder
	fmt.Fprintf(&sb, "model\tbatch\tlayer\tkind\tfwd_sim_ms\tbwd_sim_ms\n")
	for _, n := range paperNets {
		build, ok := models.ByName(n.model)
		if !ok {
			return "", fmt.Errorf("model %q not registered", n.model)
		}
		spec := build(batches[n.model])
		per, total := spec.Cost(dev)
		for i, c := range per {
			l := &spec.Layers[i]
			fmt.Fprintf(&sb, "%s\t%d\t%s\t%s\t%.6f\t%.6f\n", n.model, spec.Batch, l.Name, l.Kind, 1e3*c.Forward, 1e3*c.Backward)
		}
		m.put("models."+n.metric+".fwd_ms", "sim_ms", 1e3*total.Forward)
		m.put("models."+n.metric+".bwd_ms", "sim_ms", 1e3*total.Backward)
	}
	return sb.String(), nil
}

// writeArtifact writes one artifact file into the run's output
// directory.
func (b *bench) writeArtifact(name string, data []byte) error {
	return os.WriteFile(filepath.Join(b.out, name), data, 0o644)
}
