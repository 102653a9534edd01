package sim

// eventHeap is the engine's retired event queue: the 4-ary min-heap
// that ordered events before the hierarchical timing wheel (wheel.go)
// replaced it in PR 6. It is kept — unexported, outside the hot path —
// for two jobs:
//
//   - differential testing: the wheel/heap fuzz tests drive both
//     queues with identical (at, seq) schedules and require identical
//     pop order, so any tie-break or ordering bug in the wheel is
//     caught against this reference;
//   - the benchmark trajectory: cmd/tqbench re-measures this baseline
//     every PR (sim.HeapChurn) so BENCH_*.json records the wheel's
//     speedup against the exact pre-PR-6 implementation rather than a
//     number copied from an old report.
//
// The ordering contract is the engine's: (at, seq) ascending, so
// events at the same instant pop in scheduling order. 4-ary because
// that measured faster than binary for deep queues: more comparisons
// per level, half the levels.
type eventHeap struct{ heap []event }

func (h *eventHeap) len() int { return len(h.heap) }

// min returns the earliest queued timestamp; the queue must be
// non-empty.
func (h *eventHeap) min() Time { return h.heap[0].at }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.heap[i], &h.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	h.heap = append(h.heap, ev)
	i := len(h.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h.heap[i], h.heap[parent] = h.heap[parent], h.heap[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	// Zero the vacated tail slot: otherwise it keeps the moved
	// event's handler (and everything the handler references)
	// reachable until a later push happens to overwrite it.
	h.heap[last] = event{}
	h.heap = h.heap[:last]
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h.heap) {
			break
		}
		min := first
		end := first + 4
		if end > len(h.heap) {
			end = len(h.heap)
		}
		for c := first + 1; c < end; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			break
		}
		h.heap[i], h.heap[min] = h.heap[min], h.heap[i]
		i = min
	}
	return top
}
