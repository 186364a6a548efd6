package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// probe times f on the host and returns the median seconds per call
// over reps repetitions. Calls shorter than minRep are batched — the
// batch doubles until one repetition lasts minRep — so the clock's
// resolution and per-call timer overhead stay negligible.
func probe(reps int, minRep time.Duration, f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(t0); d >= minRep || n >= 1<<20 {
			break
		}
		n *= 2
	}
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[r] = time.Since(t0).Seconds() / float64(n)
	}
	return median(per)
}
