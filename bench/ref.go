package main

import (
	"runtime"
	"time"
)

// The reference kernel is fixed work of the harness's own, run after every
// timed op and every set-up: dependent loads over an array larger than L2,
// with ALU work between them. On a shared host whose speed drifts between
// and within runs, an op and the kernel run next to it slow down together,
// so the ratio of their times is steadier than either (README.md has the
// measurements). The host-time metrics are taken from times scaled by
// refNominalMs ÷ the neighbouring kernel's time: ms on a host where the
// kernel takes refNominalMs. The unscaled times are reported beside them
// (host_speed and raw_op_ms_p50 in the info line, bench.raw_op_ms_p50 in
// the traced run).
//
// What the program leaves behind must not reach the kernel, or a change
// that leaves more behind would slow the kernel and read as a gain. So
// settle runs before every kernel, and the traced run measures what is
// left (bench.ref_after_op_ratio: 1.35 on paper-round without settle,
// 1.05-1.13 with a 1 ms pause, 0.96-1.06 with 20 ms on every workload);
// --aa fails when it is further than refAfterOpTolerance from 1.
const (
	refWords     = 1 << 21 // 8 MB of uint32, twice the sizing host's L2
	refIters     = 150_000
	refNominalMs = 26.0 // the kernel's time on the sizing host when quiet

	refSettle           = 20 * time.Millisecond
	refAfterOpTolerance = 0.1
)

type refKernel struct {
	mem  []uint32
	sink uint64 // carries each run's result into the next, so none is elided
}

// newRefKernel links the array into one random cycle (Sattolo's shuffle),
// which defeats the prefetcher.
func newRefKernel() *refKernel {
	k := &refKernel{mem: make([]uint32, refWords)}
	for i := range k.mem {
		k.mem[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := refWords - 1; i > 0; i-- {
		x = xorshift(x)
		j := x % uint64(i)
		k.mem[i], k.mem[j] = k.mem[j], k.mem[i]
	}
	return k
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// settle lets what the op left behind end before a kernel runs. A
// collection ends the cycle the op's garbage may have started, so that
// none runs beside the kernel; the pause lets the goroutines the op woke
// (shard workers, connection and stream teardown) park and the runtime
// finish returning the freed memory. The collection also means that every
// op starts on a collected heap, on the parent commit and the change
// alike: sim.mallocs_per_kslot and sim.alloc_kb_per_kslot show allocation.
func (k *refKernel) settle() {
	runtime.GC()
	time.Sleep(refSettle)
}

// run settles, executes the kernel once and returns its wall time in ms.
func (k *refKernel) run() float64 {
	k.settle()
	start := time.Now()
	p := uint32(k.sink % refWords)
	x := k.sink | 1
	for i := 0; i < refIters; i++ {
		p = k.mem[p]
		for j := 0; j < 40; j++ {
			x = xorshift(x)
		}
		x += uint64(p)
	}
	k.sink = x
	return msSince(start)
}
