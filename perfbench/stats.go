package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// minTailBeyond is how many samples must lie beyond a reported tail
// percentile: fewer, and the percentile is one or two unlucky samples.
const minTailBeyond = 10

// tailOK reports whether n samples put at least minTailBeyond samples
// beyond percentile p.
func tailOK(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minTailBeyond-1e-9
}

// samplesFor is the smallest sample count that puts minTailBeyond samples
// beyond percentile p.
func samplesFor(p float64) int {
	return int(math.Ceil(minTailBeyond*100/(100-p) - 1e-9))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler records the live Go heap — the bytes a garbage collection
// found reachable — once per GC cycle. Unlike heap-in-use, which swings
// with where a sample falls in the GC cycle, the live heap moves only with
// what the program keeps: its metadata, caches and the runs in flight.
// runtime/metrics reads do not stop the world, so polling costs the
// measured program almost nothing.
type heapSampler struct {
	stop, done chan struct{}
	// live holds one value per GC cycle observed. The sampler goroutine
	// owns it until done is closed.
	live []float64
}

// peakHeapPct is the percentile of per-cycle live heaps reported as the
// peak: the top of normal operation, not the one cycle that caught an
// unusual number of runs in flight.
const peakHeapPct = 99

// startHeapSampler polls every interval until stopMiB is called.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	cycles := s[0].Value.Uint64()
	h.live = append(h.live, float64(s[1].Value.Uint64()))
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				if c := s[0].Value.Uint64(); c != cycles {
					cycles = c
					h.live = append(h.live, float64(s[1].Value.Uint64()))
				}
			}
		}
	}()
	return h
}

// stopMiB stops the sampler, waits for it to exit, and returns the
// peakHeapPct percentile of the per-cycle live heaps in MiB.
func (h *heapSampler) stopMiB() float64 {
	close(h.stop)
	<-h.done
	return percentile(h.live, peakHeapPct) / (1 << 20)
}
