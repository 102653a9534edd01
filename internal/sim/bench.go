package sim

import "time"

// This file is the engine's benchmark surface, consumed by
// cmd/tqbench: one standard churn workload, runnable against both the
// live timing wheel and the retired 4-ary heap, so every BENCH_*.json
// records the wheel's speedup against the exact baseline it replaced
// instead of a number copied from an old report.

// churnDelay derives the i-th reschedule delay of the standard churn
// workload: uniform in [1, 1000]ns from a splitmix64 stream, so both
// queue implementations see the identical schedule without the engine
// depending on the rng package.
func churnDelay(state *uint64) Time {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return Time(z%1000 + 1)
}

// churner is the churn workload's one resource: every event it fires
// reschedules it until the budget runs out. All depth live events
// target the same churner, as every worker event of a machine run
// targets a handful of long-lived resources.
type churner struct {
	e         *Engine
	state     uint64
	remaining int
}

func (c *churner) Fire(EventID) {
	c.remaining--
	if c.remaining == 0 {
		c.e.Halt()
		return
	}
	c.e.After(churnDelay(&c.state), c)
}

// EngineChurn runs the standard churn workload — depth self-renewing
// events with uniform 1..1000ns reschedule delays, the regime the
// scheduling simulations operate in — for n events on a fresh Engine
// and returns the wall-clock time of the measured run loop.
func EngineChurn(depth, n int, seed uint64) time.Duration {
	e := New()
	c := &churner{e: e, state: seed, remaining: n}
	for i := 0; i < depth; i++ {
		e.After(churnDelay(&c.state), c)
	}
	start := time.Now() //simvet:ignore host wall-clock benchmark timing, not sim state
	e.Run()
	return time.Since(start) //simvet:ignore host wall-clock benchmark timing, not sim state
}

// heapChurner is churner against the bare retired heap: firing pushes
// the next event at the heap's clock plus the next churn delay.
type heapChurner struct {
	h     eventHeap
	now   Time
	seq   uint64
	state uint64
}

func (c *heapChurner) push() {
	c.seq++
	c.h.push(event{at: c.now + churnDelay(&c.state), seq: c.seq, h: c})
}

func (c *heapChurner) Fire(EventID) { c.push() }

// HeapChurn is EngineChurn against the retired 4-ary heap baseline:
// the same delay stream and live depth, driven through the equivalent
// pop → advance clock → fire handler loop the old engine used.
func HeapChurn(depth, n int, seed uint64) time.Duration {
	c := &heapChurner{state: seed}
	for i := 0; i < depth; i++ {
		c.push()
	}
	start := time.Now() //simvet:ignore host wall-clock benchmark timing, not sim state
	for i := 0; i < n; i++ {
		ev := c.h.pop()
		c.now = ev.at
		ev.h.Fire(EventID(ev.seq))
	}
	return time.Since(start) //simvet:ignore host wall-clock benchmark timing, not sim state
}
