package main

import (
	"hash/crc64"
	"math"
	"sort"
	"time"
)

// Host times drift with the load other tenants put on a shared machine:
// the same run can take a third longer a few minutes later. Each run
// therefore also times a fixed reference computation, built from the
// standard library alone so that no change to the system under test can
// alter it, and reports every host time scaled to a fixed reference
// speed. The factor applied is reported as runtime.host_speed.
//
// The reference runs on one goroutine and, separately, as two copies on
// two goroutines at once: the second slows when another tenant takes a
// core. A workload is scaled by the two in the proportion it needs the
// second core (workload.parallel). On the machine the baseline was
// recorded on, occupying one core with a busy loop slowed fleet-10k's
// rounds 1.34x and the two-goroutine reference 1.9x, and left the other
// workloads and the one-goroutine reference unchanged.

// Reference times at reference speed: their medians on the machine the
// baseline was recorded on.
const (
	refOneMs = 7.5
	refTwoMs = 8.5
)

// speedEvery is how often the reference is sampled during a run.
const speedEvery = 500 * time.Millisecond

// hostSpeed samples the reference computation.
type hostSpeed struct {
	data     [2][]byte
	ints     []int
	work     [2][]int
	table    *crc64.Table
	one, two []float64
	last     time.Time
}

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{ints: make([]int, 1<<16), table: crc64.MakeTable(crc64.ECMA)}
	x := uint64(1)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := range h.data {
		h.data[i] = make([]byte, 4<<20)
		for j := range h.data[i] {
			h.data[i][j] = byte(next() >> 56)
		}
		h.work[i] = make([]int, len(h.ints))
	}
	for i := range h.ints {
		h.ints[i] = int(next() >> 33)
	}
	return h
}

// unit is the reference computation on copy i: a CRC over a buffer
// larger than the caches, and a sort.
func (h *hostSpeed) unit(i int) {
	crc64.Checksum(h.data[i], h.table)
	copy(h.work[i], h.ints)
	sort.Ints(h.work[i])
}

// sample times the reference on one goroutine and on two.
func (h *hostSpeed) sample() {
	start := time.Now()
	h.unit(0)
	h.one = append(h.one, ms(time.Since(start)))
	start = time.Now()
	done := make(chan struct{})
	go func() {
		h.unit(1)
		close(done)
	}()
	h.unit(0)
	<-done
	h.two = append(h.two, ms(time.Since(start)))
	h.last = time.Now()
}

// maybeSample samples when speedEvery has passed since the last sample.
func (h *hostSpeed) maybeSample() {
	if time.Since(h.last) >= speedEvery {
		h.sample()
	}
}

// factor converts host times of a workload that needs the second core a
// parallel share of the time to reference speed.
func (h *hostSpeed) factor(parallel float64) float64 {
	if h == nil || len(h.one) == 0 {
		return 1
	}
	slow := math.Pow(median(h.one)/refOneMs, 1-parallel) * math.Pow(median(h.two)/refTwoMs, parallel)
	return 1 / slow
}
