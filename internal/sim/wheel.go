package sim

import "math/bits"

// The event queue is a hierarchical timing wheel (a calendar queue):
// eight levels of 256 slots, level L covering the virtual-time range
// [cur, cur + 256^(L+1)) at a granularity of 256^L nanoseconds. Push
// drops an event into the one slot whose window contains its
// timestamp — O(1), one append — and pop scans a 256-bit occupancy
// bitmap for the next non-empty slot, cascading coarse buckets down a
// level as the clock reaches their window. Every event is touched at
// most once per level (≤ 8 times total), so both operations are
// amortized O(1) versus the retired heap's O(log n) sift per
// operation; cmd/tqbench records the measured speedup every PR.
//
// Ordering is the engine's documented contract, exactly: events pop in
// (at, seq) order. Within a level-0 slot all events share one
// timestamp, and a slot's slice is always seq-sorted, because
//
//   - seq increases monotonically with every push,
//   - an event is pushed directly into a level-0 slot only while the
//     wheel's clock is inside that slot's 256ns window (otherwise the
//     differing high bits route it to a coarser level), and
//   - a coarse bucket cascades — in stored, i.e. seq, order — at the
//     instant the clock first enters its window, which is therefore
//     before any direct push into the slots it fans out to.
//
// The heap/wheel differential fuzz tests (wheel_test.go) check this
// equivalence on random schedule/pop interleavings, and the PR 5
// golden fixtures pin it for every machine model's full trajectory.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 8 // 8 levels × 8 bits spans every int64 timestamp

	// slotShrinkCap is the shrink policy's threshold: a drained slot
	// whose backing array grew beyond this many events releases it to
	// the garbage collector instead of keeping it for reuse, so one
	// pathological burst (say, a megabatch scheduled at one instant)
	// does not pin its high-water storage for the rest of the run.
	// Steady-state slots stay far below it and keep their storage, so
	// the hot path settles to zero allocations.
	slotShrinkCap = 1024

	// slotMinCap is the capacity of a slot's first array: a typical busy
	// slot's depth, so most arrays never regrow, for 256 bytes each.
	slotMinCap = 8
)

// wheelSlot is one bucket: a FIFO of events drained via head so that
// handlers can append same-instant events while the slot is being
// popped. Popped entries are zeroed immediately — the slice would
// otherwise keep each fired handler (and everything it references)
// reachable until the storage's next use.
type wheelSlot struct {
	head   int
	events []event
}

// take removes and returns the slot's next event, zeroing the vacated
// entry. done reports whether the slot is now empty (and was reset).
//
//simvet:hotpath
func (s *wheelSlot) take() (ev event, done bool) {
	ev = s.events[s.head]
	s.events[s.head] = event{}
	s.head++
	if s.head < len(s.events) {
		return ev, false
	}
	s.head = 0
	if cap(s.events) > slotShrinkCap {
		s.events = nil // shrink policy: release burst-sized storage
	} else {
		s.events = s.events[:0]
	}
	return ev, true
}

// wheelLevel is one ring of slots plus an occupancy bitmap so the next
// non-empty slot is found with four word tests instead of 256 loads.
//
// Level-0 slots keep their storage when pop drains them: they come
// round every 256ns, so it is soon reused. A coarser bucket drains by
// cascading and hands its storage to the level's spare stack, from
// which the next of the level's buckets to fill takes it: a level-2
// bucket comes round only every 16.7ms and a level-3 one every 4.3s,
// so storage kept on the bucket would sit idle while each bucket a
// fresh engine reaches allocated and grew its own. Recycled, the
// level's arrays follow the clock: a fresh engine makes about as many
// per level as the level ever has occupied buckets, not one per bucket
// it reaches, and each grows only to the level's busiest depth.
type wheelLevel struct {
	occupied [wheelSlots / 64]uint64
	slots    [wheelSlots]wheelSlot
	spare    [][]event
}

// reuse returns storage for an empty slot: the level's most recently
// recycled array, or a new one.
func (l *wheelLevel) reuse() []event {
	n := len(l.spare)
	if n == 0 {
		return make([]event, 0, slotMinCap)
	}
	buf := l.spare[n-1]
	l.spare[n-1] = nil
	l.spare = l.spare[:n-1]
	return buf
}

// scan returns the first occupied slot index at or after from.
func (l *wheelLevel) scan(from int) (int, bool) {
	w := from >> 6
	word := l.occupied[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word), true
		}
		w++
		if w == len(l.occupied) {
			return 0, false
		}
		word = l.occupied[w]
	}
}

func (l *wheelLevel) mark(idx int)  { l.occupied[idx>>6] |= 1 << (uint(idx) & 63) }
func (l *wheelLevel) clear(idx int) { l.occupied[idx>>6] &^= 1 << (uint(idx) & 63) }

// timingWheel is the queue itself. The zero value is ready to use,
// which keeps Engine's documented zero-value contract.
type timingWheel struct {
	// cur is the timestamp of the last popped event: a lower bound on
	// every queued event, and the reference point for level selection.
	// It advances only through pop and cascade — never past a pending
	// event — so it may lag Engine.now after RunUntil fast-forwards
	// the clock across an empty stretch.
	cur    Time
	count  int
	levels [wheelLevels]wheelLevel
}

//simvet:hotpath
func (w *timingWheel) push(ev event) {
	w.place(ev)
	w.count++
}

// place files ev into the slot for its timestamp: the level is chosen
// from the highest bit where at differs from cur (same 256ns window →
// level 0, same 64µs window → level 1, ...), so exactly one slot's
// window contains at, and slot indices cannot collide across wheel
// rotations.
//
//simvet:hotpath
func (w *timingWheel) place(ev event) {
	lvl := 0
	if diff := uint64(ev.at ^ w.cur); diff != 0 {
		lvl = (bits.Len64(diff) - 1) >> 3
	}
	idx := int(ev.at>>(uint(lvl)*wheelBits)) & wheelMask
	l := &w.levels[lvl]
	s := &l.slots[idx]
	if s.events == nil {
		s.events = l.reuse()
	}
	s.events = append(s.events, ev)
	l.mark(idx)
}

// maxTime is the unbounded horizon for nextTime.
const maxTime = Time(1<<63 - 1)

// nextTime returns the earliest queued event's timestamp. It may
// cascade coarse buckets down as a side effect, which never changes
// the pop order. ok is false when the wheel is empty or the earliest
// event provably lies beyond limit.
//
// The limit matters for correctness, not just early exit: cascading
// advances the wheel clock, and a peek for a bounded drain (RunUntil)
// must not advance it past the deadline — the engine clock stops
// there, and a later push between the deadline and an over-advanced
// wheel clock would be filed into an already-passed slot and lost. A
// bucket is therefore only cascaded when its window start is within
// limit, which caps the clock at the deadline; pop uses maxTime.
//
//simvet:hotpath
func (w *timingWheel) nextTime(limit Time) (Time, bool) {
	if w.count == 0 {
		return 0, false
	}
	for {
		if s, ok := w.levels[0].scan(int(w.cur) & wheelMask); ok {
			// Found without advancing the clock: return the true
			// timestamp even if it exceeds limit — the caller compares.
			return (w.cur &^ wheelMask) | Time(s), true
		}
		// Level 0 is drained: the earliest event sits in the first
		// occupied bucket of the lowest occupied level — every level-L
		// event lies inside the clock's current level-(L+1) window, so
		// finer levels always precede coarser ones. Cascade that bucket
		// one step down and rescan.
		cascaded := false
		for lvl := 1; lvl < wheelLevels; lvl++ {
			idx := int(w.cur>>(uint(lvl)*wheelBits)) & wheelMask
			if b, ok := w.levels[lvl].scan(idx); ok {
				shift := uint(lvl) * wheelBits
				windowMask := Time(1)<<(shift+wheelBits) - 1
				start := (w.cur &^ windowMask) | Time(b)<<shift
				if start > limit {
					// Every queued event is >= start > limit; stop
					// before the cascade moves the clock past limit.
					return 0, false
				}
				w.cascade(lvl, b, start)
				cascaded = true
				break
			}
		}
		if !cascaded {
			panic("sim: timing wheel lost events (count/bitmap mismatch)")
		}
	}
}

// cascade advances the wheel clock to start — the beginning of bucket
// b's window; every earlier window is drained, so no pending event is
// skipped — and re-files the bucket's events, which now land at
// strictly lower levels. Stored order is preserved, keeping each
// destination slot seq-sorted. The drained bucket's storage goes to
// the level's spare stack (see wheelLevel) unless the shrink policy
// releases it.
//
//simvet:hotpath
func (w *timingWheel) cascade(lvl, b int, start Time) {
	if start > w.cur {
		w.cur = start
	}
	l := &w.levels[lvl]
	s := &l.slots[b]
	evs := s.events[s.head:]
	for i := range evs {
		w.place(evs[i]) // appends only to levels below lvl: evs is stable
	}
	clear(s.events) // drop the moved handler references
	// Recycle the storage, unless the shrink policy drops it.
	if cap(s.events) <= slotShrinkCap {
		l.spare = append(l.spare, s.events[:0])
	}
	s.events = nil
	s.head = 0
	l.clear(b)
}

// pop removes and returns the earliest queued event; the wheel must be
// non-empty.
//
//simvet:hotpath
func (w *timingWheel) pop() event {
	t, ok := w.nextTime(maxTime)
	if !ok {
		panic("sim: pop from an empty event queue")
	}
	w.cur = t
	idx := int(t) & wheelMask
	ev, done := w.levels[0].slots[idx].take()
	if done {
		w.levels[0].clear(idx)
	}
	w.count--
	return ev
}
