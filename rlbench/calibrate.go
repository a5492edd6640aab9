package main

import (
	"math/rand"
	"slices"
	"time"
)

// The development host is a shared 2-core VM whose speed drifts by
// 10–30%, over seconds as well as minutes; the plan path and a fixed
// CPU-bound loop slow down and speed up together. No amount of work
// within one run removes drift between runs, so every time metric is
// normalised to the host's speed: a fixed calibration kernel, which
// runs none of the program's code, runs once every few ops, and the
// ops between two runs are scaled by refKernel over the kernel's time
// (see windows). A change to the program moves the normalised figure;
// a change in the host's speed moves the kernel too and mostly cancels.
// The detail line reports the raw figures beside the normalised ones.
//
// The kernel sorts a fixed array of ints. On the development host it
// tracked the plan, 8k-walk and transfer-match paths about as well as
// any kernel tried (a 4 MiB pointer chase tracked them worse than no
// correction at all). It allocates nothing, so the program's garbage
// cannot charge it GC assists and move the factor.

// refKernel is the kernel's median time on the development host, so
// that normalised figures read as times on that host.
const refKernel = 700 * time.Microsecond

// calibrator owns the kernel's buffers, built once from a fixed seed.
type calibrator struct {
	src, buf []int
	sink     int
}

const (
	calibSortN = 1 << 13 // ints sorted per run
	calibReps  = 3
)

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{src: make([]int, calibSortN), buf: make([]int, calibSortN)}
	for i := range c.src {
		c.src[i] = rng.Int()
	}
	// Fault the buffers in and warm the caches, so the first measurement
	// times the kernel and not the process's start-up.
	for i := 0; i < calibReps; i++ {
		c.once()
	}
	return c
}

// once runs the kernel one time and returns its duration.
func (c *calibrator) once() time.Duration {
	t0 := time.Now()
	copy(c.buf, c.src)
	slices.Sort(c.buf)
	c.sink += c.buf[calibSortN/2]
	return time.Since(t0)
}

// measure is the median of calibReps kernel runs.
func (c *calibrator) measure() time.Duration {
	var ds [calibReps]time.Duration
	for i := range ds {
		ds[i] = c.once()
	}
	slices.Sort(ds[:])
	return ds[calibReps/2]
}

// factor converts times measured while the kernel took k to times on
// the reference host.
func factor(k time.Duration) float64 {
	return float64(refKernel) / float64(k)
}

// bytes is the heap the kernel's buffers hold.
func (c *calibrator) bytes() int { return 8 * (len(c.src) + len(c.buf)) }
