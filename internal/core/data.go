package core

import (
	"sync"

	"swcaffe/internal/dataset"
	"swcaffe/internal/detrand"
	"swcaffe/internal/pario"
	"swcaffe/internal/tensor"
)

// DataFeeder is swCaffe's input pipeline (paper Sec. V-B): "each
// worker of the parallel DNN training task uses an I/O thread to
// prefetch one mini-batch data via random sampling prior to each
// iteration". A background goroutine fills the next batch while the
// current one trains; Next blocks only when the prefetch has not
// finished — the exposed time the pario model prices analytically.
type DataFeeder struct {
	ds     dataset.Dataset
	rng    *detrand.RNG
	random bool

	batch  int
	cursor int

	mu      sync.Mutex
	cond    *sync.Cond
	ready   bool
	stopped bool

	nextData   *tensor.Tensor
	nextLabels *tensor.Tensor

	// SimReadTime accumulates the simulated storage read time per
	// fetched batch when a pario config is attached; nextRead is the
	// priced read of the staged batch, which Next hands out with it.
	io          *pario.Config
	procs       int
	SimReadTime float64
	nextRead    float64
}

// NewDataFeeder builds a feeder producing (batch, C, H, W) tensors
// from ds. When random is true batches are drawn by random sampling
// (training); otherwise sequentially (evaluation).
func NewDataFeeder(ds dataset.Dataset, batch int, random bool, seed int64) *DataFeeder {
	c, h, w := ds.Dims()
	f := &DataFeeder{
		ds: ds, rng: detrand.New(uint64(seed)), random: random,
		batch:      batch,
		nextData:   tensor.New(batch, c, h, w),
		nextLabels: tensor.New(batch, 1, 1, 1),
		procs:      1,
	}
	f.cond = sync.NewCond(&f.mu)
	//swvet:ignore straygo: the prefetch I/O thread of paper Sec. V-B; bounded by Stop, which the trainers call on teardown
	go f.loop()
	return f
}

// AttachStorage prices each prefetch against the striped-filesystem
// model, as if procs workers were reading concurrently.
func (f *DataFeeder) AttachStorage(cfg pario.Config, procs int) {
	f.mu.Lock()
	f.io = &cfg
	f.procs = procs
	f.mu.Unlock()
}

func (f *DataFeeder) loop() {
	for {
		f.mu.Lock()
		for f.ready && !f.stopped {
			f.cond.Wait()
		}
		if f.stopped {
			f.mu.Unlock()
			return
		}
		f.mu.Unlock()

		// Fill outside the lock: this is the prefetch "I/O thread".
		if f.random {
			dataset.RandomBatch(f.ds, f.rng, f.nextData, f.nextLabels)
		} else {
			dataset.Batch(f.ds, f.cursor, f.nextData, f.nextLabels)
			f.cursor += f.batch
		}

		f.mu.Lock()
		f.nextRead = 0
		if f.io != nil {
			f.nextRead = f.io.ReadTime(f.procs, f.nextData.Bytes())
			f.SimReadTime += f.nextRead
		}
		f.ready = true
		f.cond.Broadcast()
		f.mu.Unlock()
	}
}

// Next copies the prefetched batch into data/labels, wakes the
// prefetcher for the following one, and returns the batch's priced
// storage read time (0 without AttachStorage). It blocks if the
// prefetch is still in flight. The read time is taken under the same
// lock as the batch, so a refill that races ahead is never counted
// against this batch.
func (f *DataFeeder) Next(data, labels *tensor.Tensor) (readTime float64) {
	f.mu.Lock()
	for !f.ready && !f.stopped {
		f.cond.Wait()
	}
	if f.stopped {
		f.mu.Unlock()
		panic("core: Next on a stopped DataFeeder")
	}
	data.CopyFrom(f.nextData)
	labels.CopyFrom(f.nextLabels)
	readTime = f.nextRead
	f.ready = false
	f.cond.Broadcast()
	f.mu.Unlock()
	return readTime
}

// Stop terminates the prefetch goroutine. The feeder cannot be reused.
func (f *DataFeeder) Stop() {
	f.mu.Lock()
	f.stopped = true
	f.cond.Broadcast()
	f.mu.Unlock()
}
