package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// nominalRefNs is the yardstick's CPU time per iteration on the nominal
// host: the median over the timed passes of eight fig7-sweep runs on the
// two-vCPU KVM guest (Intel Xeon, 2 GHz) the benchmark was built on.
// req_per_s and setup_s are scaled to that host's speed.
const nominalRefNs = 185.0

// yardstickShare is the yardstick's CPU budget after each operation,
// as a share of the operation's host time, and yardstickMin its least
// budget: each measurement starts with the table out of cache, which
// a short one would mostly measure.
const (
	yardstickShare = 0.1
	yardstickMin   = 2 * time.Millisecond
)

// yardstick is the benchmark's own host-speed reference: a fixed,
// allocation-free mix of priority-queue updates and dependent loads
// over a 1 MiB table, the kind of work the simulator's event loop
// does. On a host shared with other guests, contention slows the
// simulator and the yardstick alike; measuring the yardstick right
// after every operation, on the same thread, lets the benchmark divide
// that slowdown out. Its code is part of the benchmark, so changes to
// the simulator cannot move it.
type yardstick struct {
	heap  []uint64
	table []uint32
	x     uint64
	pos   uint32
	iters uint64
	cpu   time.Duration
}

func newYardstick() *yardstick {
	y := &yardstick{heap: make([]uint64, 4096), table: make([]uint32, 1<<18), x: 0x9e3779b97f4a7c15}
	for i := range y.heap {
		y.heap[i] = uint64(i)
	}
	// Sattolo's shuffle: one cycle through the whole table.
	for i := range y.table {
		y.table[i] = uint32(i)
	}
	for i := len(y.table) - 1; i > 0; i-- {
		j := int(y.next() % uint64(i))
		y.table[i], y.table[j] = y.table[j], y.table[i]
	}
	return y
}

func (y *yardstick) next() uint64 {
	y.x ^= y.x << 13
	y.x ^= y.x >> 7
	y.x ^= y.x << 17
	return y.x
}

// step runs n iterations: raise the heap minimum by a random amount and
// sift it down, then follow four links of the table's cycle.
func (y *yardstick) step(n int) {
	h := y.heap
	for ; n > 0; n-- {
		h[0] += y.next() & 0xffff
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if h[i] <= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		for k := 0; k < 4; k++ {
			y.pos = y.table[y.pos]
		}
	}
}

// run measures the yardstick for about budget of the calling thread's
// CPU time. The sweep runs one worker, so calls never overlap.
func (y *yardstick) run(budget time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	for {
		y.step(1024)
		y.iters += 1024
		if d := threadCPU() - start; d >= budget {
			y.cpu += d
			return
		}
	}
}

// take returns and clears the CPU time and iterations measured so far.
func (y *yardstick) take() (time.Duration, uint64) {
	cpu, iters := y.cpu, y.iters
	y.cpu, y.iters = 0, 0
	return cpu, iters
}

// threadCPU is the calling thread's CPU time so far.
func threadCPU() time.Duration { return clockCPU(clockThreadCPU) }

// cpuTime is the process's CPU time so far, all threads.
func cpuTime() time.Duration { return clockCPU(clockProcessCPU) }

// The Linux CPU-time clocks. clock_gettime reads them to the
// nanosecond; getrusage reports a running thread's time only to the
// last scheduler tick.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockCPU(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
