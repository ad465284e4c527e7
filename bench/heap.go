package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
)

// heapPeak tracks the largest live heap garbage collections find. It
// samples /gc/heap/live:bytes once per cycle, from the finalizer of an
// object each cycle frees, so a discovery's peak is read over the
// hundreds of collections it triggers rather than at its end.
type heapPeak struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

// sentinel is big enough to get its own allocation, so its finalizer runs.
type sentinel struct{ _ [16]byte }

func startHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.arm()
	return h
}

func (h *heapPeak) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		for v := liveHeap(); ; {
			old := h.peak.Load()
			if v <= old || h.peak.CompareAndSwap(old, v) {
				break
			}
		}
		if !h.stopped.Load() {
			h.arm()
		}
	})
}

// take returns the peak since the previous take, and at least the live
// heap the latest collection found, then starts a new peak.
func (h *heapPeak) take() float64 {
	return float64(max(h.peak.Swap(0), liveHeap()))
}

// stop ends the sampling after the next collection.
func (h *heapPeak) stop() { h.stopped.Store(true) }

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
