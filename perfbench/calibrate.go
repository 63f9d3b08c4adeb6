package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts: on a few shared vCPUs the CPU time of the
// same window moved by up to 2.5x within half an hour as neighbours
// came and went. A calibrator runs a fixed kernel in short bursts
// through the timed loop to measure the speed the run actually got, and
// the gated timings are multiplied by (calibrationRef / kernel
// time)^calibrationExponent, i.e. reported at the speed at which the
// kernel takes calibrationRef. The kernel is the benchmark's own code,
// so nothing in the library under test can change its time; a change
// to the library moves the scaled timings by the same share as the raw
// ones.
//
// The kernel is a dependent sum over 16 MB followed by SHA-256 over
// 640 KB. In six batches of 6-8 same-seed runs on a drifting 2-vCPU
// host, dividing by its median time cut the coefficient of variation
// of the median window CPU time by a quarter to two thirds (0.09-0.15
// raw, 0.05-0.10 scaled); of the kernels tried (pointer chase,
// streaming and random access over 4-64 MB) it tracked the workloads
// most consistently. It does not track them fully, which the exponent
// corrects.
type calibrator struct {
	seq  []float64
	buf  []byte
	reps []float64 // CPU nanoseconds of each kernel run
	last time.Time
	// sink keeps the kernel's sum observable. Reached through the
	// pointer, it is loaded and stored on every step of the sum, which
	// makes the sum a chain of dependent memory round trips.
	sink float64
}

const (
	// calibrationRef is the kernel's CPU time, in nanoseconds, at the
	// reference speed. It only sets the scale: the kernel took 5-10 ms
	// on the 2.1 GHz Xeon vCPUs the first numbers were measured on.
	calibrationRef = 8e6
	// calibrationEvery is how often the timed loop pauses for a burst
	// of calibrationBurst kernel runs: about 1.5% of the loop.
	calibrationEvery = time.Second
	calibrationBurst = 2
	// calibrationExponent is how much more the workloads' CPU time
	// moves than the kernel's: the host ran in two speed regimes, and
	// between them the kernel's time moved 1.7-1.8x while the
	// workloads' unscaled CPU ticks moved 2.45-2.55x, a power of 1.59
	// (quiet-1m), 1.73 (mass-250k) and 1.56 (wire-10k). With 1.6, a
	// 10-run quiet-1m set that crossed from one regime to the other
	// spread 0.05 of its median instead of 0.31.
	calibrationExponent = 1.6
)

// newCalibrator maps the kernel's 16 MB outside the Go heap, so it
// does not raise the monitor's GC goal; it adds a constant 16 MB to
// peak_rss_mb.
func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, 16<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	c := &calibrator{seq: unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), len(mem)/8), buf: make([]byte, 64<<10)}
	for i := range c.seq {
		c.seq[i] = float64(i % 7)
	}
	return c, nil
}

// close unmaps the kernel's buffer.
func (c *calibrator) close() {
	mem := unsafe.Slice((*byte)(unsafe.Pointer(&c.seq[0])), len(c.seq)*8)
	c.seq = nil
	_ = syscall.Munmap(mem)
}

// burst runs the kernel calibrationBurst times.
func (c *calibrator) burst() {
	for i := 0; i < calibrationBurst; i++ {
		t := cpuTime()
		for _, v := range c.seq {
			c.sink += v
		}
		for k := 0; k < 10; k++ {
			s := sha256.Sum256(c.buf)
			c.buf[k] = s[0]
		}
		c.reps = append(c.reps, float64(cpuTime()-t))
	}
	c.last = time.Now()
}

// due runs a burst if calibrationEvery has passed since the last one.
func (c *calibrator) due() {
	if time.Since(c.last) >= calibrationEvery {
		c.burst()
	}
}

// speed is the run's kernel time: the 25th percentile of its kernel
// runs, not the median. A kernel run is slowed when other work shares
// its core at the time; in one of ten wire-10k runs more than half of
// them were, by 60%, which moved that run's median as much, while the
// 25th percentile of all ten runs stayed within 1%.
func (c *calibrator) speed() float64 {
	r := slices.Clone(c.reps)
	slices.Sort(r)
	return r[len(r)/4]
}

// scale turns a CPU time measured in this run into one at the
// reference speed.
func (c *calibrator) scale() float64 {
	return math.Pow(calibrationRef/c.speed(), calibrationExponent)
}
