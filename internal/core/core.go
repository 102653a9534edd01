// Package core implements the scheduling-policy building blocks of Tiny
// Quanta as plain data structures, shared by the discrete-event machine
// models (internal/cluster) and the live goroutine runtime
// (internal/tqrt):
//
//   - FIFO: the allocation-free ring queue behind the unranked op
//     queues (the TQ dispatcher, Shinjuku, Caladan); ranked worker
//     run queues live in internal/pifo;
//   - LoadTracker: the dispatcher's view of per-worker load, recovered
//     from wrapping worker-side counters by delta reads (§4);
//   - Balancer implementations: JSQ (with pluggable tie-breaking,
//     including the paper's MSQ heuristic), power-of-two, random, and
//     RSS-hash steering.
package core

import "repro/internal/rng"

// FIFO is an allocation-free ring-buffer queue for serial stages that
// serve in arrival order: requests enqueue at the tail and the head is
// served next.
type FIFO[T any] struct {
	buf  []T
	head int
	size int
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return q.size }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = v
	q.size++
}

// Pop removes and returns the head. The second result is false if the
// queue is empty.
func (q *FIFO[T]) Pop() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // release for GC
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return v, true
}

func (q *FIFO[T]) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	nb := make([]T, n)
	for i := 0; i < q.size; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}

// View is what a Balancer may observe about worker load — the
// dispatcher-visible statistics of §4 and nothing else (the policies
// are blind: no service times, no job types).
type View interface {
	// Workers returns the number of worker cores.
	Workers() int
	// QueueLen returns the number of unfinished jobs assigned to
	// worker w, as recovered by the dispatcher's counters.
	QueueLen(w int) int
	// ServicedQuanta returns the number of quanta worker w has
	// serviced for its *current* jobs, the statistic behind MSQ
	// tie-breaking.
	ServicedQuanta(w int) int64
}

// Balancer selects the worker that should receive an incoming job.
type Balancer interface {
	Pick(v View) int
	Name() string
}

// TieBreaker chooses among workers that are tied on queue length.
// candidates is reused between calls and must not be retained.
type TieBreaker interface {
	Break(v View, candidates []int) int
	Name() string
}

// MSQ is the paper's Maximum-Serviced-Quanta tie-breaker (§3.2): among
// tied workers, pick the one whose current jobs have received the most
// quanta, expecting that core to have the smallest remaining work.
// Remaining ties resolve to the lowest worker index (deterministic).
type MSQ struct{}

// Break implements TieBreaker.
func (MSQ) Break(v View, candidates []int) int {
	best := candidates[0]
	bestQ := v.ServicedQuanta(best)
	for _, w := range candidates[1:] {
		if q := v.ServicedQuanta(w); q > bestQ {
			best, bestQ = w, q
		}
	}
	return best
}

// Name implements TieBreaker.
func (MSQ) Name() string { return "msq" }

// RandomTie breaks ties uniformly at random — the "naive" policy the
// paper compares MSQ against.
type RandomTie struct{ R *rng.Rand }

// Break implements TieBreaker.
func (t RandomTie) Break(_ View, candidates []int) int {
	return candidates[t.R.Intn(len(candidates))]
}

// Name implements TieBreaker.
func (RandomTie) Name() string { return "random-tie" }

// JSQ is join-the-shortest-queue load balancing with a pluggable
// tie-breaker — TQ's dispatcher policy.
type JSQ struct {
	Tie TieBreaker
	// scratch avoids a per-pick allocation for the candidate list.
	scratch []int
}

// NewJSQ returns a JSQ balancer with the given tie-breaker.
func NewJSQ(tie TieBreaker) *JSQ { return &JSQ{Tie: tie} }

// Pick implements Balancer.
func (b *JSQ) Pick(v View) int {
	n := v.Workers()
	minLen := v.QueueLen(0)
	b.scratch = append(b.scratch[:0], 0)
	for w := 1; w < n; w++ {
		l := v.QueueLen(w)
		switch {
		case l < minLen:
			minLen = l
			b.scratch = append(b.scratch[:0], w)
		case l == minLen:
			b.scratch = append(b.scratch, w)
		}
	}
	if len(b.scratch) == 1 {
		return b.scratch[0]
	}
	return b.Tie.Break(v, b.scratch)
}

// Name implements Balancer.
func (b *JSQ) Name() string { return "jsq+" + b.Tie.Name() }

// PowerOfTwo samples two distinct workers uniformly and assigns to the
// shorter queue (the TQ-POWER-TWO variant of §5.4).
type PowerOfTwo struct{ R *rng.Rand }

// Pick implements Balancer.
func (b PowerOfTwo) Pick(v View) int {
	n := v.Workers()
	if n == 1 {
		return 0
	}
	a := b.R.Intn(n)
	c := b.R.Intn(n - 1)
	if c >= a {
		c++
	}
	if v.QueueLen(c) < v.QueueLen(a) {
		return c
	}
	return a
}

// Name implements Balancer.
func (PowerOfTwo) Name() string { return "power-of-two" }

// Random assigns uniformly at random (the TQ-RAND variant of §5.4).
type Random struct{ R *rng.Rand }

// Pick implements Balancer.
func (b Random) Pick(v View) int { return b.R.Intn(v.Workers()) }

// Name implements Balancer.
func (Random) Name() string { return "random" }

// RSS steers by hashing a flow key onto a worker, modelling Caladan's
// NIC receive-side scaling (§5.1). The paper's open-loop client sends
// each request on its own flow, so Steer is called with the request ID.
type RSS struct{}

// Steer maps a flow key to a worker index in [0, workers).
func (RSS) Steer(key uint64, workers int) int {
	// SplitMix64 finalizer: full-avalanche 64-bit mix.
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(workers))
}

// LoadTracker is the dispatcher-side bookkeeping behind JSQ (§4): it
// counts jobs assigned to each worker and recovers each worker's
// finished-job total from a wrapping counter via delta reads, so the
// difference is the worker's unfinished-job count. It also caches the
// last-read serviced-quanta statistic for MSQ.
type LoadTracker struct {
	assigned []uint64
	finished []uint64
	lastRaw  []uint64
	quanta   []int64
	width    uint
}

// NewLoadTracker returns a tracker for n workers whose finished-job
// counters wrap at 2^width.
func NewLoadTracker(n int, width uint) *LoadTracker {
	if width < 1 || width > 64 {
		panic("core: counter width out of range")
	}
	return &LoadTracker{
		assigned: make([]uint64, n),
		finished: make([]uint64, n),
		lastRaw:  make([]uint64, n),
		quanta:   make([]int64, n),
		width:    width,
	}
}

// Assign records that one job was forwarded to worker w.
func (lt *LoadTracker) Assign(w int) { lt.assigned[w]++ }

// ObserveFinished incorporates a raw read of worker w's wrapping
// finished-jobs counter.
func (lt *LoadTracker) ObserveFinished(w int, raw uint64) {
	var delta uint64
	if lt.width == 64 {
		delta = raw - lt.lastRaw[w]
	} else {
		mask := uint64(1)<<lt.width - 1
		delta = (raw - lt.lastRaw[w]) & mask
	}
	lt.finished[w] += delta
	lt.lastRaw[w] = raw
}

// ObserveQuanta records the latest serviced-quanta statistic read from
// worker w.
func (lt *LoadTracker) ObserveQuanta(w int, quanta int64) { lt.quanta[w] = quanta }

// Workers implements View.
func (lt *LoadTracker) Workers() int { return len(lt.assigned) }

// QueueLen implements View: assigned minus finished.
func (lt *LoadTracker) QueueLen(w int) int {
	return int(lt.assigned[w] - lt.finished[w])
}

// ServicedQuanta implements View.
func (lt *LoadTracker) ServicedQuanta(w int) int64 { return lt.quanta[w] }

var _ View = (*LoadTracker)(nil)
