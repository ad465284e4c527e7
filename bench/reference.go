package main

import (
	"sort"
	"strconv"
	"time"
)

// refNominal is the reference time normalised seconds assume. On the
// 2-vCPU Xeon box baseline.json was recorded on, reference took 70 ms in
// quiet spells and up to 190 ms in busy ones.
const refNominal = 100 * time.Millisecond

// refSink keeps reference's results live so the compiler cannot drop it.
var refSink int

// reference is a fixed computation from the standard library alone —
// string-keyed maps, sorting, and small pointerful allocations — that no
// change to the repository can speed up or slow down. The timed phase
// runs it between discoveries.
//
// On a shared machine the speed of allocation-heavy Go code drifts by
// half or more over minutes, as neighbours load the caches and memory.
// Dividing a target's discovery times by the median time of the
// references run among them and multiplying by refNominal cancels most of
// that drift (see samples.speed). The raw wall times stay in the run's
// record.
func reference() time.Duration {
	type node struct {
		next *node
		s    string
	}
	start := time.Now()
	for i := 0; i < 10; i++ {
		m := map[string]int{}
		for j := 0; j < 20000; j++ {
			m[strconv.Itoa(j*7919+i)] = j
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		refSink += len(keys[0])

		var head *node
		for j := 0; j < 40000; j++ {
			head = &node{next: head, s: keys[j%len(keys)]}
		}
		for n := head; n != nil; n = n.next {
			refSink += len(n.s)
		}
	}
	return time.Since(start)
}
