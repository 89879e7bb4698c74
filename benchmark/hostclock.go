package main

import (
	"sort"
	"time"
)

// The benchmark host is a small shared VM whose speed shifts by 20–30 % for
// seconds to minutes at a time (a neighbour on the same core or memory
// channel). Raw wall times then spread wider across runs than any bound a
// regression gate could use. So every unit of work is followed by a fixed
// reference kernel — pure Go and standard library, no engine code, no
// allocation — and wall figures that feed an end-to-end metric are scaled by
// hostKernelRef ÷ the kernel's time next to them: they read as the time the
// work would have taken on a quiet host. On a quiet host the factor is 1.
//
// The kernel is a pseudo-random fill and a sort of 16 Ki floats: branchy and
// cache-bound like the engine's decode and hash paths. A pure ALU loop barely
// notices the interference (±3 % while a query pass moved 35 %) and a
// streaming loop under-reads it; this one moved with the passes and took the
// spread of power_warm's pass time over eight runs from 23 % to 5 %; in a
// quiet hour it leaves the spread where it was (4–5 %).

// hostKernelRef is the kernel's time on the quiet benchmark host (median of
// forty runs' medians, 2-vCPU Xeon 2.1 GHz microVM, go1.24).
const hostKernelRef = 1330 * time.Microsecond

var kernelBuf = make([]float64, 1<<14)

// hostKernel runs the reference kernel twice and returns the faster time:
// the sustained speed of the host, not a blip inside the kernel itself.
func hostKernel() time.Duration {
	best := time.Duration(0)
	for run := 0; run < 2; run++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := range kernelBuf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			kernelBuf[i] = float64(x % 1000003)
		}
		sort.Float64s(kernelBuf)
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// speedFactor converts a kernel time into the factor that scales a wall time
// measured next to it to the quiet host.
func speedFactor(kernel time.Duration) float64 {
	return float64(hostKernelRef) / float64(kernel)
}
