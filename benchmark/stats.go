package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memWatch measures the whole process's allocation and heap while a phase
// runs: the TotalAlloc delta between start and stop, and the largest in-use
// heap seen by a sampler that reads runtime/metrics (no stop-the-world)
// every millisecond.
type memWatch struct {
	startAlloc uint64
	stop       chan struct{}
	done       chan struct{}
	peak       uint64
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

func heapInUse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startMemWatch() *memWatch {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := &memWatch{startAlloc: ms.TotalAlloc, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if h := heapInUse(s); h > w.peak {
				w.peak = h
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// finish stops the sampler and returns the bytes allocated since start and
// the peak in-use heap in bytes.
func (w *memWatch) finish() (allocBytes, peakHeap uint64) {
	close(w.stop)
	<-w.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - w.startAlloc, w.peak
}
