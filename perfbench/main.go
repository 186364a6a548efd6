// Command perfbench is the end-to-end benchmark of the swCaffe
// reproduction. It trains one of three workloads through the public
// APIs of train, core, dataset, pario and elastic, checks every step,
// and prints one JSON line of metrics by name and unit:
//
//	go run . --workload dist-p8 --seed 1 --seconds 20 --trace 0
//
// (perfbench/run.sh builds it inside the checkout and runs it from the
// repository root.) An untraced run (--trace 0) reports the
// end-to-end metrics: set-up time, host ms per step, samples per host
// second, allocation, live heap, modeled Sunway time per step and the
// loss at a fixed step. A traced run (--trace 1) attaches obs.Tracer,
// times the module calls from outside and reports the per-layer
// metrics; it also writes the simulated-clock Perfetto trace of one
// step, a host-clock trace of the traced loop and the per-layer cost
// rows of AlexNet, VGG-16 and ResNet-50 under
// .bench_build/perfbench/<workload>-seed<n>-trace1/.
//
// The seed only builds the synthetic dataset; the program receives
// nothing else from it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"swcaffe/internal/dataset"
	"swcaffe/internal/obs"
	"swcaffe/internal/swdnn"
)

// maxProcs caps GOMAXPROCS so runs on hosts with more cores load the
// program the same way as the two-core host the bounds were set on.
const maxProcs = 2

// Loss limits of a healthy step on the 16-class task, a step outside
// them counts as failed: the task's Bayes risk keeps the loss near 1
// (the lowest step seen was 0.14), and the largest early loss seen was
// 6.1, against a ceiling of 4 ln 16 that a diverging run crosses within
// a few steps.
const (
	lossFloor = 0.05
	lossCeil  = 16 * math.Ln2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) put(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	sp      *spec
	seed    int64
	seconds float64
	out     string // artifact directory of this run
	scratch string // checkpoint files; removed at exit

	attempted, failed int      // steps run and steps that failed a check
	runFaults         int      // failed run-level checks (set-up agreement, plan, activity)
	problems          []string // the first failures, for the report
	lossMin, lossMax  float32
	// rec is the run record written to record.json: environment, plan
	// decisions and the values that must repeat bit-exactly at a seed.
	rec map[string]any
}

func main() { os.Exit(run()) }

func run() int {
	var names []string
	for _, s := range specs() {
		names = append(names, s.name)
	}
	workload := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "dataset seed")
	seconds := flag.Float64("seconds", 10, "host seconds the timed loop runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outRoot := flag.String("out", filepath.Join(".bench_build", "perfbench"), "artifact directory")
	flag.Parse()

	var sp *spec
	for _, s := range specs() {
		if s.name == *workload {
			sp = s
		}
	}
	if sp == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds > 0 and --trace 0|1\n", strings.Join(names, ","))
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	b := &bench{sp: sp, seed: *seed, seconds: *seconds, rec: map[string]any{
		"workload": sp.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
	}}
	b.out = filepath.Join(*outRoot, fmt.Sprintf("%s-seed%d-trace%d", sp.name, *seed, *trace))
	b.scratch = filepath.Join(b.out, "scratch")
	if err := os.MkdirAll(b.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.scratch)

	var m metrics
	var err error
	if *trace == 1 {
		m, err = b.traced()
	} else {
		m, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: b.failed == 0 && b.runFaults == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
	b.rec["problems"] = b.problems
	b.rec["loss_range"] = []float32{b.lossMin, b.lossMax}
	b.rec["result"] = res
	rec, err := json.MarshalIndent(b.rec, "", "  ")
	if err == nil {
		err = b.writeArtifact("record.json", append(rec, '\n'))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", p)
	}
	fmt.Printf("# %s seed %d: gomaxprocs %d, nproc %d, %s; step ms p50 %.4g p90 %.4g over %d timed steps; %d/%d steps and %d run checks failed; record in %s\n",
		sp.name, *seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), b.rec["step_ms_p50"], b.rec["step_ms_p90"],
		b.rec["timed_steps"], b.failed, b.attempted, b.runFaults, b.out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func (b *bench) dataset() dataset.Dataset {
	return dataset.NewClusters(datasetLen, classes, 1, 8, 8, noise, b.seed)
}

// fail counts one failed step (or, with step false, one failed
// run-level check); the first few are kept for the report.
func (b *bench) fail(step bool, format string, args ...any) {
	if step {
		b.failed++
	} else {
		b.runFaults++
	}
	if len(b.problems) < 10 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// stepChecked runs one step and applies every per-step correctness
// check: a finite loss within the healthy limits, finite and identical
// replicas, the StepStats invariants, and a successful checkpoint.
func (b *bench) stepChecked(r runner) sample {
	s := r.step()
	b.attempted++
	if b.attempted == 1 || s.loss < b.lossMin {
		b.lossMin = s.loss
	}
	if b.attempted == 1 || s.loss > b.lossMax {
		b.lossMax = s.loss
	}
	bad := r.check()
	if s.err != nil {
		bad = append(bad, s.err.Error())
	}
	switch l := float64(s.loss); {
	case math.IsNaN(l) || math.IsInf(l, 0):
		bad = append(bad, fmt.Sprintf("loss %v is not finite", l))
	case l < lossFloor || l > lossCeil:
		bad = append(bad, fmt.Sprintf("loss %v outside [%g, %g]", l, lossFloor, lossCeil))
	}
	if len(bad) > 0 {
		b.fail(true, "step %d: %s", b.attempted, strings.Join(bad, "; "))
	}
	return s
}

// setupRun is one set-up: dataset build, trainer construction and the
// warm-up steps, with the host time of each.
type setupRun struct {
	r                  runner
	total, build, warm time.Duration
	warmLoss           []float32
	warmModel          modeled
	planMisses         uint64
}

func (b *bench) setup(tr *obs.Tracer) (setupRun, error) {
	_, miss0 := swdnn.PlanCacheCounters()
	t0 := time.Now()
	ds := b.dataset()
	t1 := time.Now()
	r, err := b.sp.build(ds, tr, b.scratch)
	if err != nil {
		return setupRun{}, err
	}
	t2 := time.Now()
	var losses []float32
	for i := 0; i < b.sp.warmup; i++ {
		losses = append(losses, b.stepChecked(r).loss)
	}
	t3 := time.Now()
	_, miss1 := swdnn.PlanCacheCounters()
	return setupRun{r: r, total: t3.Sub(t0), build: t2.Sub(t1), warm: t3.Sub(t2),
		warmLoss: losses, warmModel: r.modeled(), planMisses: miss1 - miss0}, nil
}

// loopRun is one timed loop: per-step host times (ms) and what the
// loop did to the trainer.
type loopRun struct {
	total, run, load []float64
	capt, save       []float64 // checkpoint steps only
	ckptBytes        int64
	allocMB          float64 // per step
	spans            []float64
	launches         float64 // per step
	dmaMB, gflop     float64 // per step
	last             modeled
	// fixedLoss is the mean loss of the lossWindow steps ending at the
	// workload's fixed step; fixed is that step's modeled decomposition.
	fixedLoss float64
	fixed     modeled
}

// loop runs steps for at least budget host seconds and until the
// workload's fixed step is done. With a tracer the simulated-clock
// trace is reset before every step, so it ends holding the last step;
// host records each step's parts on the host clock.
func (b *bench) loop(r runner, budget float64, tr, host *obs.Tracer) loopRun {
	var lr loopRun
	launches0, stats0 := r.launches(), r.nodeStats()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	start := time.Now()
	for n := b.sp.warmup + 1; ; n++ {
		tr.Reset()
		at := time.Since(start).Seconds()
		s := b.stepChecked(r)
		lr.total = append(lr.total, ms(s.total()))
		lr.run = append(lr.run, ms(s.run))
		lr.load = append(lr.load, ms(s.load))
		if s.ckptSave > 0 {
			lr.capt = append(lr.capt, ms(s.ckptCapt))
			lr.save = append(lr.save, ms(s.ckptSave))
			lr.ckptBytes = s.ckptBytes
		}
		if tr != nil {
			lr.spans = append(lr.spans, float64(tr.Len()))
		}
		if host != nil {
			t := at
			for _, part := range []struct {
				name string
				d    time.Duration
			}{{"load", s.load}, {"step", s.run}, {"checkpoint.capture", s.ckptCapt}, {"checkpoint.save", s.ckptSave}} {
				if part.d > 0 {
					host.Span(0, 0, part.name, t, t+part.d.Seconds(), obs.I64("step", int64(n)))
					t += part.d.Seconds()
				}
			}
		}
		if n > b.sp.fixedStep-b.sp.lossWindow && n <= b.sp.fixedStep {
			lr.fixedLoss += float64(s.loss) / float64(b.sp.lossWindow)
		}
		if n == b.sp.fixedStep {
			lr.fixed = r.modeled()
		}
		if time.Since(start).Seconds() >= budget && n >= b.sp.fixedStep {
			break
		}
	}
	runtime.ReadMemStats(&mem)
	steps := float64(len(lr.total))
	lr.allocMB = float64(mem.TotalAlloc-alloc0) / 1e6 / steps
	lr.launches = float64(r.launches()-launches0) / steps
	st := r.nodeStats()
	lr.dmaMB = float64(st.DMAGetBytes+st.DMAPutBytes-stats0.DMAGetBytes-stats0.DMAPutBytes) / 1e6 / steps
	lr.gflop = (st.Flops - stats0.Flops) / 1e9 / steps
	lr.last = r.modeled()
	return lr
}

// untraced measures the end-to-end metrics: setupReps set-ups (the
// last one is kept), then the timed loop.
func (b *bench) untraced() (metrics, error) {
	var su setupRun
	var setupS []float64
	var firstLoss []float32
	var firstModel modeled
	for i := 0; i < b.sp.setupReps; i++ {
		if su.r != nil {
			su.r.close()
			su.r = nil
		}
		runtime.GC()
		var err error
		if su, err = b.setup(nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, su.total.Seconds())
		if i == 0 {
			firstLoss, firstModel = su.warmLoss, su.warmModel
			b.rec["plan_misses_setup"] = su.planMisses
		} else if !sameBits(firstLoss, su.warmLoss) || firstModel != su.warmModel {
			b.fail(false, "set-up %d: warm-up losses %v / modeled %+v differ from set-up 0's %v / %+v",
				i, su.warmLoss, su.warmModel, firstLoss, firstModel)
		}
	}
	r := su.r
	defer r.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / 1e6

	lr := b.loop(r, b.seconds, nil, nil)
	b.conclude(r, firstLoss[0], lr)

	var sumS float64
	for _, t := range lr.total {
		sumS += t / 1e3
	}
	m := metrics{}
	m.put("setup_s", "s", median(setupS))
	m.put("step_ms_p50", "ms", median(lr.total))
	m.put("samples_per_s", "1/s", float64(len(lr.total)*b.sp.samples)/sumS)
	m.put("alloc_mb_per_step", "MB", lr.allocMB)
	m.put("heap_mb", "MB", heapMB)
	m.put("modeled_step_us", "sim_us", 1e6*lr.fixed.Step)
	m.put("loss_final", "loss", lr.fixedLoss)
	b.rec["step_ms"] = lr.total
	b.rec["setup_s"] = setupS
	return m, nil
}

// traced measures the per-layer metrics: an untraced set-up and loop
// for the tracing-overhead baseline, then a traced trainer, its loop,
// and the module probes.
func (b *bench) traced() (metrics, error) {
	m := metrics{}
	plain, err := b.setup(nil)
	if err != nil {
		return nil, err
	}
	m.put("train.new_s", "s", plain.build.Seconds())
	m.put("train.warmup_s", "s", plain.warm.Seconds())
	m.put("swdnn.plan_misses", "count", float64(plain.planMisses))
	base := b.loop(plain.r, b.seconds/2, nil, nil)
	plain.r.close()
	plain.r = nil
	runtime.GC()

	tr, host := obs.New(), obs.New()
	host.NameProcess(0, "host")
	host.NameThread(0, 0, b.sp.name)
	su, err := b.setup(tr)
	if err != nil {
		return nil, err
	}
	r := su.r
	defer r.close()
	lr := b.loop(r, b.seconds/2, tr, host)
	b.conclude(r, su.warmLoss[0], lr)
	if err := tr.WriteFile(filepath.Join(b.out, "trace-sim-step.json")); err != nil {
		return nil, err
	}
	if err := host.WriteFile(filepath.Join(b.out, "trace-host.json")); err != nil {
		return nil, err
	}

	stepMs := median(lr.run)
	m.put("train.step_ms", "ms", stepMs)
	loadMs := median(lr.load)
	if cg, ok := r.(*cgRunner); ok {
		loadMs = 1e3 * probe(probeReps, probeMin, cg.loadOnce)
	}
	m.put("train.load_ms", "ms", loadMs)
	m.put("train.step_samples", "count", float64(len(lr.total)))
	m.put("train.step_ms_p90", "ms", quantile(lr.total, 0.9)) // load, Step and checkpoint
	m.put("obs.spans_per_step", "count", median(lr.spans))
	m.put("obs.trace_overhead_pct", "%", 100*(stepMs/median(base.run)-1))

	s := lr.last
	m.put("simnet.msgs", "count", float64(s.Msgs))
	m.put("simnet.cross_msgs", "count", float64(s.CrossMsgs))
	m.put("simnet.cross_mb", "MB", float64(s.CrossBytes)/1e6)
	m.put("collective.comm_us", "sim_us", 1e6*s.Comm)
	m.put("collective.exposed_us", "sim_us", 1e6*s.Exposed)
	m.put("collective.buckets", "count", float64(s.Buckets))
	m.put("swnode.launches", "count", lr.launches)
	m.put("swnode.compute_us", "sim_us", 1e6*s.Compute)
	m.put("sw26010.dma_mb", "MB", lr.dmaMB)
	m.put("sw26010.gflop", "GFLOP", lr.gflop)
	m.put("pario.read_us", "sim_us", 1e6*s.IO)
	m.put("pario.exposed_io_us", "sim_us", 1e6*s.ExposedIO)
	stripes, _ := b.rec["stripes"].(int)
	m.put("pario.stripes", "count", float64(stripes))

	// Workloads that do not checkpoint as they train are probed with
	// three checkpoints of the trained state.
	capt, save, ckptBytes := lr.capt, lr.save, lr.ckptBytes
	for len(save) < 3 {
		c := r.checkpoint()
		if c.err != nil {
			return nil, c.err
		}
		capt, save, ckptBytes = append(capt, ms(c.ckptCapt)), append(save, ms(c.ckptSave)), c.ckptBytes
	}
	m.put("elastic.capture_ms", "ms", median(capt))
	m.put("elastic.save_ms", "ms", median(save))
	m.put("elastic.ckpt_mb", "MB", float64(ckptBytes)/1e6)

	if err := b.probeModules(m); err != nil {
		return nil, err
	}
	rows, err := modelRows(m)
	if err != nil {
		return nil, err
	}
	if err := b.writeArtifact("paper-nets-layers.tsv", []byte(rows)); err != nil {
		return nil, err
	}
	return m, nil
}

// conclude records the trainer's plan decisions and the values that
// must repeat bit-exactly at a fixed seed, and applies the run-level
// checks: the run trained (loss_final is below the first step's loss)
// and the workload's own expectations hold.
func (b *bench) conclude(r runner, firstLoss float32, lr loopRun) {
	r.describe(b.rec)
	// The step-time tail is reported, not gated: run to run it moves
	// about twice as much as the median with the host's speed (its
	// spread over ten runs reached 0.29 on dist-p8 and 0.38 on
	// paper-p1024, above any allowed bound).
	b.rec["timed_steps"] = len(lr.total)
	b.rec["step_ms_p50"] = median(lr.total)
	b.rec["step_ms_p90"] = quantile(lr.total, 0.9)
	b.rec["fixed_step"] = b.sp.fixedStep
	b.rec["fixed_loss_bits"] = fmt.Sprintf("%#016x", math.Float64bits(lr.fixedLoss))
	b.rec["fixed_modeled"] = lr.fixed
	if !(lr.fixedLoss < float64(firstLoss)) {
		b.fail(false, "did not train: mean loss %v up to step %d is not below the first step's %v",
			lr.fixedLoss, b.sp.fixedStep, firstLoss)
	}
	for _, p := range b.sp.expect(b.rec, lr) {
		b.fail(false, "%s", p)
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
