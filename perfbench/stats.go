package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank q-quantile (q in [0, 1]) of xs; 0
// for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mib = 1 << 20

// Runtime heap probes read through runtime/metrics, which needs no
// stop-the-world pause, so sampling them does not perturb the workload.
var heapProbe = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
}

// heapStats returns the in-use heap (objects plus span slack, as
// MemStats.HeapInuse counts it) and the cumulative bytes allocated.
func heapStats() (inuse, allocs uint64) {
	s := make([]metrics.Sample, len(heapProbe))
	copy(s, heapProbe)
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

// heapWatch samples the in-use heap every few milliseconds and keeps the
// maximum, so short allocation peaks between round boundaries count.
// lap closes one round's window.
type heapWatch struct {
	mu    sync.Mutex
	peak  uint64
	peaks []float64 // MiB, one per lap
	stop  chan struct{}
	done  chan struct{}
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			w.sample()
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *heapWatch) sample() {
	inuse, _ := heapStats()
	w.mu.Lock()
	w.peak = max(w.peak, inuse)
	w.mu.Unlock()
}

// lap records the peak since the previous lap; a nil watch records
// nothing.
func (w *heapWatch) lap() {
	if w == nil {
		return
	}
	w.sample()
	w.mu.Lock()
	w.peaks = append(w.peaks, float64(w.peak)/mib)
	w.peak = 0
	w.mu.Unlock()
}

// Stop ends sampling and returns the median per-round peak in MiB. A
// single run-wide maximum would hinge on where one garbage collection
// happened to fall; the median over rounds does not.
func (w *heapWatch) Stop() float64 {
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return median(w.peaks)
}

// settleHeap collects garbage left by an earlier phase so the next phase's
// heap figures describe only itself.
func settleHeap() {
	runtime.GC()
	runtime.GC()
}
