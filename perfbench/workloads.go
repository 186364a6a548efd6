package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/elastic"
	"swcaffe/internal/obs"
	"swcaffe/internal/pario"
	"swcaffe/internal/sw26010"
	"swcaffe/internal/tensor"
	"swcaffe/internal/topology"
	"swcaffe/internal/train"
)

// spec is one benchmark workload: how to build it from a dataset, how
// many times set-up is repeated for the setup_s median, and the fixed
// step whose loss and modeled decomposition are reported exactly.
type spec struct {
	name string // why each workload exists is recorded in BENCHMARK.json

	setupReps int // set-ups per untraced run; setup_s is their median
	warmup    int // warm-up steps inside every set-up
	fixedStep int // loss_final and the modeled metrics are read after this many steps
	// lossWindow is how many steps up to fixedStep loss_final averages:
	// one small batch's loss varies with its samples more than the
	// bounds allow.
	lossWindow int
	samples    int // training samples per step (all replicas)

	// replica builds one model replica at the workload's shapes (the
	// factory every trainer replica is built from).
	replica func() (*core.Net, map[string]*tensor.Tensor, error)
	// build constructs the trainer on ds; a non-nil tracer records the
	// run on the simulated clock.
	build func(ds dataset.Dataset, tr *obs.Tracer, scratch string) (runner, error)
	// expect lists the run-level checks the workload fails, given the
	// run record and its timed loop.
	expect func(rec map[string]any, lr loopRun) []string
}

// runner drives one built trainer.
type runner interface {
	// step runs one training step — the load, Step, and on checkpoint
	// steps the capture and save — and times each part on the host.
	step() sample
	// check lists every correctness violation the last step left in the
	// trainer's state (parameters, replica agreement, StepStats).
	check() []string
	// modeled is the modeled decomposition of the last step.
	modeled() modeled
	// launches is the cumulative swnode launch count; nodeStats the
	// cumulative simulated CoreGroup activity.
	launches() int
	nodeStats() sw26010.Stats
	// describe adds the trainer's plan decisions to the run record.
	describe(rec map[string]any)
	// checkpoint captures and saves the trainer state once (the elastic
	// probe of the workloads that do not checkpoint as they train).
	checkpoint() sample
	close()
}

// sample is the host-time breakdown of one step.
type sample struct {
	loss                float32
	load, run, ckptCapt time.Duration
	ckptSave            time.Duration
	ckptBytes           int64
	err                 error
}

func (s sample) total() time.Duration { return s.load + s.run + s.ckptCapt + s.ckptSave }

// modeled is the Sunway-clock view of one step (seconds) and its
// traffic census.
type modeled struct {
	Step, Compute, Comm, Exposed float64
	IO, ExposedIO                float64
	Msgs, CrossMsgs, CrossBytes  int64
	Buckets                      int
}

// solverCfg clips the gradient norm: the task's inputs have a scale of
// ~2.7 per dimension, and without clipping momentum SGD diverges within
// ~70 steps even at a learning rate of 0.003.
var solverCfg = core.SolverConfig{BaseLR: 0.01, Momentum: 0.9, WeightDecay: 5e-4, ClipGradients: 1}

// convNet is the small conv+fc net of node-cg4 and dist-p8 (and, with
// fewer channels, the tiny net of paper-p1024), on 1x8x8 inputs.
func convNet(batch, channels, hidden, outputs int) (*core.Net, map[string]*tensor.Tensor, error) {
	net := core.NewNet("bench", "data", "label")
	net.AddLayers(
		core.NewConv(core.ConvConfig{Name: "conv1", Bottom: "data", Top: "conv1",
			NumOutput: channels, Kernel: 3, Stride: 1, Pad: 1, BiasTerm: true}),
		core.NewReLU("relu1", "conv1", "conv1", 0),
		core.NewPool(core.PoolConfig{Name: "pool1", Bottom: "conv1", Top: "pool1",
			Method: core.MaxPool, Kernel: 2, Stride: 2}),
		core.NewInnerProduct(core.InnerProductConfig{Name: "fc1", Bottom: "pool1", Top: "fc1",
			NumOutput: hidden, BiasTerm: true}),
		core.NewReLU("relu2", "fc1", "fc1", 0),
		core.NewInnerProduct(core.InnerProductConfig{Name: "fc2", Bottom: "fc1", Top: "fc2",
			NumOutput: outputs, BiasTerm: true}),
		core.NewSoftmaxLoss("loss", "fc2", "label", "loss"),
	)
	inputs := map[string]*tensor.Tensor{
		"data":  tensor.New(batch, 1, 8, 8),
		"label": tensor.New(batch, 1, 1, 1),
	}
	if err := net.Setup(inputs); err != nil {
		return nil, nil, err
	}
	return net, inputs, nil
}

// The synthetic task: 16 Gaussian clusters in 64 dimensions with noise
// 2.5 overlap enough that the loss settles well above zero, so the
// gradients stay normal floats for the whole run. (At the stock 4
// classes and noise 0.35 the loss reaches 0 within ~10 steps, and the
// host time then measures subnormal arithmetic, not the program.)
const (
	classes = 16
	noise   = 2.5
	// datasetLen is large enough that no example repeats within a run:
	// every step sees fresh samples, so the loss tracks the task's
	// Bayes risk instead of memorizing a small set down to zero.
	datasetLen = 1 << 40
)

func specs() []*spec {
	const cgQuarter = 8
	nodeNet := func() (*core.Net, map[string]*tensor.Tensor, error) { return convNet(cgQuarter, 8, 32, classes) }

	const p8Batch = 8
	p8Net := func() (*core.Net, map[string]*tensor.Tensor, error) { return convNet(p8Batch, 8, 32, classes) }
	p8Network := topology.Sunway()
	p8Network.SupernodeSize = 4
	p8Mapping := topology.AdjacentMapping{Q: 4}

	const paperP, paperBatch = 1024, 2
	paperNet := func() (*core.Net, map[string]*tensor.Tensor, error) { return convNet(paperBatch, 2, 8, classes) }
	paperMapping := topology.AdjacentMapping{Q: 256}

	return []*spec{
		{
			name:      "node-cg4",
			setupReps: 31, warmup: 3, fixedStep: 1000, lossWindow: 250, samples: 4 * cgQuarter,
			replica: nodeNet,
			expect: func(_ map[string]any, lr loopRun) []string {
				if !(lr.dmaMB > 0) {
					return []string{"the CPE meshes moved no DMA bytes"}
				}
				return nil
			},
			build: func(ds dataset.Dataset, tr *obs.Tracer, scratch string) (runner, error) {
				t, err := train.NewCGTrainer(nodeNet, solverCfg)
				if err != nil {
					return nil, err
				}
				t.AttachInput(ds, pario.DefaultTaihuLight(1))
				if tr != nil {
					t.Node().SetTracer(tr, 0)
				}
				union := 4 * cgQuarter
				return &cgRunner{t: t, ds: ds, ckptPath: filepath.Join(scratch, "node-cg4.ckpt"),
					unionData: tensor.New(union, 1, 8, 8), unionLabels: tensor.New(union, 1, 1, 1)}, nil
			},
		},
		{
			name:      "dist-p8",
			setupReps: 31, warmup: 3, fixedStep: 1000, lossWindow: 250, samples: 8 * p8Batch,
			replica: p8Net,
			expect: func(rec map[string]any, lr loopRun) []string {
				var bad []string
				if rec["selector_pick"] == nil {
					bad = append(bad, "the plan selector recorded no pick")
				}
				if len(lr.save) == 0 {
					bad = append(bad, "no checkpoint was saved")
				}
				return bad
			},
			build: func(ds dataset.Dataset, tr *obs.Tracer, scratch string) (runner, error) {
				t, err := train.NewDistTrainer(train.DistConfig{
					Nodes: 8, SubBatch: p8Batch, Solver: solverCfg,
					Network: p8Network, Mapping: p8Mapping,
					Overlap: true, AlgorithmName: "auto",
					IO:     &train.IOConfig{Storage: pario.DefaultTaihuLight(1), AutoStripe: true},
					Tracer: tr,
				}, p8Net)
				if err != nil {
					return nil, err
				}
				t.AttachInput(ds)
				return &distRunner{t: t, ds: ds, mapping: p8Mapping, ckptEvery: 5,
					ckptPath: filepath.Join(scratch, "dist-p8.ckpt")}, nil
			},
		},
		{
			name:      "paper-p1024",
			setupReps: 5, warmup: 1, fixedStep: 8, lossWindow: 4, samples: paperP * paperBatch,
			replica: paperNet,
			expect: func(rec map[string]any, _ loopRun) []string {
				var bad []string
				if rec["strategy"] != "hierarchical" {
					bad = append(bad, fmt.Sprintf("strategy %v, want hierarchical", rec["strategy"]))
				}
				if rec["world"] != paperP || rec["supernodes"] != 4 {
					bad = append(bad, fmt.Sprintf("world %v over %v supernodes, want %d over 4", rec["world"], rec["supernodes"], paperP))
				}
				return bad
			},
			build: func(ds dataset.Dataset, tr *obs.Tracer, scratch string) (runner, error) {
				t, err := train.NewDistTrainer(train.DistConfig{
					Nodes: paperP, SubBatch: paperBatch, Solver: solverCfg,
					Network: topology.Sunway(), Mapping: paperMapping,
					Backend: train.BackendDES, Overlap: true, AlgorithmName: "hierarchical",
					Tracer: tr,
				}, paperNet)
				if err != nil {
					return nil, err
				}
				return &distRunner{t: t, ds: ds, mapping: paperMapping,
					ckptPath: filepath.Join(scratch, "paper-p1024.ckpt")}, nil
			},
		},
	}
}

// cgRunner drives the single-node 4-CG trainer. Its input comes
// through the trainer's own prefetching feeder, so a step is Step
// alone.
type cgRunner struct {
	t        *train.CGTrainer
	ds       dataset.Dataset
	ckptPath string
	lastSim  float64
	span     float64

	unionData, unionLabels *tensor.Tensor // loadOnce's destination
}

// loadOnce fills one union batch — the four quarter batches the
// feeder reads per step. The CGTrainer loads inside Step, on its own
// feeder thread, where the benchmark cannot time the load per step.
func (r *cgRunner) loadOnce() { dataset.Batch(r.ds, 0, r.unionData, r.unionLabels) }

func (r *cgRunner) step() sample {
	t0 := time.Now()
	loss := r.t.Step()
	d := time.Since(t0)
	r.span = r.t.SimTime - r.lastSim
	r.lastSim = r.t.SimTime
	return sample{loss: loss, run: d}
}

func (r *cgRunner) check() []string {
	var bad []string
	for _, w := range r.t.CGs {
		bad = appendNonFinite(bad, w)
	}
	if d := maxReplicaDiff(r.t.CGs); d != 0 {
		bad = append(bad, fmt.Sprintf("core-group replicas diverged by %g", d))
	}
	if !(r.t.LastExposedRead <= r.t.LastRead) {
		bad = append(bad, fmt.Sprintf("exposed read %g > read %g", r.t.LastExposedRead, r.t.LastRead))
	}
	if !(r.span > 0) || math.IsInf(r.span, 0) {
		bad = append(bad, fmt.Sprintf("modeled step %g not positive and finite", r.span))
	}
	return bad
}

func (r *cgRunner) modeled() modeled {
	return modeled{Step: r.span, Compute: r.span, IO: r.t.LastRead, ExposedIO: r.t.LastExposedRead}
}

func (r *cgRunner) launches() int            { return r.t.Node().Launches() }
func (r *cgRunner) nodeStats() sw26010.Stats { return r.t.Node().Stats() }
func (r *cgRunner) describe(rec map[string]any) {
	rec["stripes"] = 1
}

// checkpoint times what a checkpoint of this trainer would cost: the
// CGTrainer has no Checkpoint method, so CG0's parameters are captured
// into an elastic.State the way DistTrainer.Checkpoint captures rank 0.
func (r *cgRunner) checkpoint() sample {
	t0 := time.Now()
	st := &elastic.State{World: 1}
	for _, p := range r.t.CGs[0].Net.Params() {
		d := p.Data
		st.Params = append(st.Params, elastic.Blob{Name: p.Name, Shape: [4]int{d.N, d.C, d.H, d.W},
			Data: append([]float32(nil), d.Data...)})
	}
	return saveState(st, t0, r.ckptPath)
}

func (r *cgRunner) close() { r.t.Close() }

// distRunner drives a DistTrainer: LoadShards, Step, and every
// ckptEvery steps a Checkpoint written with elastic.Save.
type distRunner struct {
	t         *train.DistTrainer
	ds        dataset.Dataset
	mapping   topology.Mapping
	ckptEvery int
	ckptPath  string
}

func (r *distRunner) step() sample {
	t0 := time.Now()
	r.t.LoadShards(r.ds, r.t.Iter())
	t1 := time.Now()
	loss := r.t.Step()
	s := sample{loss: loss, load: t1.Sub(t0), run: time.Since(t1)}
	if r.ckptEvery > 0 && r.t.Iter()%r.ckptEvery == 0 {
		c := r.checkpoint()
		s.ckptCapt, s.ckptSave, s.ckptBytes, s.err = c.ckptCapt, c.ckptSave, c.ckptBytes, c.err
	}
	return s
}

func (r *distRunner) checkpoint() sample {
	t0 := time.Now()
	return saveState(r.t.Checkpoint(), t0, r.ckptPath)
}

// saveState finishes a checkpoint whose capture began at t0: it saves
// st to path and times both halves.
func saveState(st *elastic.State, t0 time.Time, path string) sample {
	t1 := time.Now()
	err := elastic.Save(path, st)
	s := sample{ckptCapt: t1.Sub(t0), ckptSave: time.Since(t1), err: err}
	if err == nil {
		fi, statErr := os.Stat(path)
		if statErr != nil {
			s.err = statErr
		} else {
			s.ckptBytes = fi.Size()
		}
	}
	return s
}

func (r *distRunner) check() []string {
	var bad []string
	for _, w := range r.t.Workers {
		bad = appendNonFinite(bad, w)
	}
	if d := r.t.ParamsDiverged(); d != 0 {
		bad = append(bad, fmt.Sprintf("replicas diverged by %g", d))
	}
	s := r.t.LastStep
	if !(s.Exposed <= s.Comm) {
		bad = append(bad, fmt.Sprintf("exposed comm %g > comm %g", s.Exposed, s.Comm))
	}
	if !(s.StepTime >= s.Compute) {
		bad = append(bad, fmt.Sprintf("step time %g < compute %g", s.StepTime, s.Compute))
	}
	if !(s.ExposedIO <= s.IO) {
		bad = append(bad, fmt.Sprintf("exposed io %g > io %g", s.ExposedIO, s.IO))
	}
	return bad
}

func (r *distRunner) modeled() modeled {
	s := r.t.LastStep
	return modeled{Step: s.StepTime, Compute: s.Compute, Comm: s.Comm, Exposed: s.Exposed,
		IO: s.IO, ExposedIO: s.ExposedIO, Msgs: s.Msgs, CrossMsgs: s.CrossMsgs,
		CrossBytes: s.CrossBytes, Buckets: len(s.Buckets)}
}

func (r *distRunner) launches() int            { return r.t.Launches() }
func (r *distRunner) nodeStats() sw26010.Stats { return r.t.NodeStats() }

func (r *distRunner) describe(rec map[string]any) {
	world := len(r.t.Workers)
	rec["world"] = world
	rec["supernodes"] = len(topology.Members(r.mapping, world))
	if eng := r.t.Engine(); eng != nil {
		rec["strategy"] = eng.StrategyName()
		rec["bucket_bytes"] = eng.BucketBytes()
		if plan := eng.Plan(); plan != nil {
			rec["selector_pick"] = plan.Algorithm
		}
	}
	storage, readers, bytes := r.t.IOStorage()
	rec["stripes"] = storage.StripeCount
	rec["io_readers"] = readers
	rec["io_bytes"] = bytes
}

func (r *distRunner) close() { r.t.Close() }

// appendNonFinite reports the first non-finite parameter of a replica.
// It is checked on every replica because a NaN slips past
// ParamsDiverged: every comparison with NaN is false.
func appendNonFinite(bad []string, w *train.Worker) []string {
	for _, p := range w.Net.Params() {
		for _, v := range p.Data.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return append(bad, fmt.Sprintf("replica %d parameter %s is not finite", w.Rank, p.Name))
			}
		}
	}
	return bad
}

// maxReplicaDiff is ParamsDiverged for the core-group replicas.
func maxReplicaDiff(ws []*train.Worker) float64 {
	base := ws[0].Net.LearnableParams()
	var worst float64
	for _, w := range ws[1:] {
		for i, p := range w.Net.LearnableParams() {
			if d := tensor.MaxDiff(base[i].Data, p.Data); d > worst {
				worst = d
			}
		}
	}
	return worst
}
