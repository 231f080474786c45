package main

import (
	"iter"
	"sync"
)

// The host's speed drifts by 10-20% over minutes, as other tenants load
// the machine, which no number of repetitions inside one run averages
// away. Every verdict is therefore paired with the reference: a fixed
// computation that is not part of this repository's code, with the
// engine's resource profile — benchWorkers goroutines allocating small
// objects, switching coroutines and hashing into a map, under the
// garbage collector. It runs none of the repository's code; what a
// verdict could leave behind to slow it is checked for (measure fails a
// verdict whose goroutines outlive its session, and collects the heap
// before each reference run). The end-to-end times are calibrated: a
// verdict's time over the reference's time measured around it, times the
// reference's time on the host the benchmark was defined on (refHostS,
// refHostCPUS). They read as seconds on that host at its usual speed, and
// most of the drift cancels.

// refRounds sizes the reference to about 0.2 s on the host the benchmark
// was defined on.
const refRounds = 1_000_000

// refHostS and refHostCPUS are the reference's usual wall and CPU time on
// that host (2 vCPUs of an Intel Xeon at 2.1 GHz, Linux, Go 1.24).
const (
	refHostS    = 0.20
	refHostCPUS = 0.39
)

// refSink keeps the reference's results live.
var refSink [benchWorkers]uint64

type refNode struct {
	next *refNode
	v    uint64
}

// reference runs the reference once and returns its wall and CPU seconds.
func reference() (wallS, cpuS float64) {
	m := startMeter()
	var wg sync.WaitGroup
	for g := range benchWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refSink[g] = refKernel(refRounds)
		}()
	}
	wg.Wait()
	wallS, cpuS, _ = m.stop()
	return wallS, cpuS
}

func refKernel(rounds int) uint64 {
	next, stop := iter.Pull(func(yield func(uint64) bool) {
		for i := uint64(0); yield(i); i++ {
		}
	})
	defer stop()
	counts := make(map[uint64]uint64)
	var list *refNode
	h := uint64(14695981039346656037)
	for i := range rounds {
		v, _ := next()
		h = (h ^ v) * 1099511628211
		list = &refNode{next: list, v: h}
		if i%16 == 0 {
			list = nil
		}
		counts[h&4095] += h
		s := make([]uint64, 0, 2)
		s = append(s, h, h>>1, h>>2)
		h += s[2]
	}
	return h + uint64(len(counts))
}
