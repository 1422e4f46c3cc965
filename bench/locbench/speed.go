package main

import (
	"math"
	"sync/atomic"
	"time"
)

// The hosts this benchmark runs on are shared: a CPU runs at full speed
// for a while, then at about half speed for seconds at a time while a
// neighbour is busy, and even its full speed drifts by 10–15% over
// minutes. A wall-clock time therefore says as much about the neighbours
// as about the program. So the harness times a fixed calibration kernel on
// the same client just before and just after every job, and reports the
// job's time in reference milliseconds: its wall time scaled by
// refCalibration over the kernel's time around it. A change to the program
// moves these numbers; a change in the host's speed largely does not.

// refCalibration is the calibration kernel's time on the reference
// machine, a 2-vCPU Intel Xeon VM, at full speed. It only fixes the scale:
// on that machine, at full speed, a reference millisecond is a
// millisecond.
const refCalibration = 400 * time.Microsecond

// calSink keeps the compiler from dropping the kernel's work.
var calSink atomic.Uint64

// calibrate times the calibration kernel: four products of two 48×48
// matrices, about 0.4 ms of floating-point work in the L1 cache, sharing
// no code with the program under test.
func calibrate() time.Duration {
	const n = 48
	var a, b, c [n * n]float64
	start := time.Now()
	for i := range a {
		a[i] = float64(i%7) + 0.5
		b[i] = float64(i%5) - 0.25
	}
	for r := 0; r < 4; r++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += a[i*n+k] * b[k*n+j]
				}
				c[i*n+j] = s
			}
		}
	}
	d := time.Since(start)
	calSink.Store(math.Float64bits(c[n+1]))
	return d
}

// refMS converts a wall time measured while the calibration kernel took
// cal into reference milliseconds.
func refMS(wall, cal time.Duration) float64 {
	return float64(wall) / float64(cal) * float64(refCalibration) / float64(time.Millisecond)
}
