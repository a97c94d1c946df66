package main

import (
	"math/bits"
	"time"
)

// calibSink keeps the compiler from removing the kernel.
var calibSink uint64

// calibKernel is the host calibration kernel: 4096 dependent steps of
// shift, xor and popcount on one word.  It touches no memory and no code
// of the repository, and IT MUST NEVER CHANGE: host.calib_ns is the only
// thing that says whether two records were taken on hosts of the same
// speed, and it can say so only while it measures the same instructions.
func calibKernel(x uint64) uint64 {
	acc := uint64(0)
	for i := 0; i < 4096; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += uint64(bits.OnesCount64(x))
	}
	return acc ^ x
}

// hostCalibNs is the median time of one kernel pass in nanoseconds over
// 201 passes (about 3 ms).
func hostCalibNs() float64 {
	passes := make([]float64, 201)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range passes {
		t0 := time.Now()
		x = calibKernel(x | 1)
		passes[i] = float64(time.Since(t0))
	}
	calibSink += x
	return median(passes)
}
