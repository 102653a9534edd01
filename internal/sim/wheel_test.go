package sim

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/rng"
)

// --- Differential testing: timing wheel vs retired 4-ary heap -------
//
// The wheel replaced the heap under a strict contract: identical
// (at, seq) pop order for every schedule. These tests drive both
// queues with the same random interleavings of scheduling, single
// pops, and RunUntil-style bounded drains, comparing every popped
// event and every peeked timestamp.

// differential mirrors one Engine-shaped trajectory onto both queues.
// Every engine event targets the differential itself, whose Fire
// records the fired ID, so pop order is observable.
type differential struct {
	t     *testing.T
	e     *Engine
	h     eventHeap
	hseq  uint64
	fired []EventID // IDs fired by the engine, in order
}

func newDifferential(t *testing.T) *differential {
	return &differential{t: t, e: New()}
}

func (d *differential) Fire(id EventID) { d.fired = append(d.fired, id) }

// schedule registers one event at the given delay from the engine
// clock in both queues.
func (d *differential) schedule(delay Time) {
	at := d.e.Now() + delay
	d.hseq++
	id := d.e.At(at, d)
	d.h.push(event{at: at, seq: d.hseq, h: d})
	if uint64(id) != d.hseq {
		d.t.Fatalf("engine event ID %d diverged from mirror seq %d", id, d.hseq)
	}
}

// runUntil drains both queues through the deadline and compares the
// fired sequences event by event.
func (d *differential) runUntil(deadline Time) {
	d.fired = d.fired[:0]
	d.e.RunUntil(deadline)
	var want []EventID
	for d.h.len() > 0 && d.h.min() <= deadline {
		want = append(want, EventID(d.h.pop().seq))
	}
	d.compare(want)
}

// drain empties both queues and compares the full remaining order.
func (d *differential) drain() {
	d.fired = d.fired[:0]
	d.e.Run()
	var want []EventID
	for d.h.len() > 0 {
		want = append(want, EventID(d.h.pop().seq))
	}
	d.compare(want)
}

func (d *differential) compare(want []EventID) {
	d.t.Helper()
	if len(d.fired) != len(want) {
		d.t.Fatalf("wheel fired %d events, heap %d (wheel %v, heap %v)",
			len(d.fired), len(want), d.fired, want)
	}
	for i := range want {
		if d.fired[i] != want[i] {
			d.t.Fatalf("pop %d: wheel fired ID %d, heap seq %d", i, d.fired[i], want[i])
		}
	}
	if d.e.Pending() != d.h.len() {
		d.t.Fatalf("pending mismatch: wheel %d, heap %d", d.e.Pending(), d.h.len())
	}
}

// delayFor maps a byte to a delay spanning every wheel level: same
// instant, same level-0 slot, and each coarser window up to tens of
// seconds, with ties made frequent so the seq tie-break is exercised.
func delayFor(b byte, r *rng.Rand) Time {
	switch b % 8 {
	case 0:
		return 0 // same instant: pure seq ordering
	case 1:
		return Time(r.Uint64n(4)) // dense ties in one slot
	case 2:
		return Time(r.Uint64n(wheelSlots)) // level 0 span
	case 3:
		return Time(r.Uint64n(1 << 16)) // level 1 span
	case 4:
		return Time(r.Uint64n(1 << 24)) // level 2 span
	case 5:
		return Time(r.Uint64n(1 << 32)) // level 3 span
	case 6:
		return Time(r.Uint64n(1 << 40)) // level 4 span
	default:
		return Time(r.Uint64n(1000) + 1) // churn regime
	}
}

// applyOps interprets a byte string as a schedule/drain interleaving
// and checks wheel/heap equivalence after every step.
func applyOps(t *testing.T, ops []byte, seed uint64) {
	d := newDifferential(t)
	r := rng.New(seed)
	for _, op := range ops {
		switch {
		case op < 160: // schedule a burst
			n := int(op%7) + 1
			for i := 0; i < n; i++ {
				d.schedule(delayFor(op+byte(i), r))
			}
		case op < 200: // bounded drain (RunUntil), sometimes past a halt
			d.runUntil(d.e.Now() + delayFor(op, r))
		case op < 220: // zero-width drain: deadline == now
			d.runUntil(d.e.Now())
		default: // full drain
			d.drain()
		}
	}
	d.drain()
}

func TestWheelMatchesHeapRandom(t *testing.T) {
	r := rng.New(0xD1FF)
	for trial := 0; trial < 150; trial++ {
		ops := make([]byte, int(r.Uint64n(60))+4)
		for i := range ops {
			ops[i] = byte(r.Uint64())
		}
		applyOps(t, ops, r.Uint64())
	}
}

// FuzzWheelVsHeap is the same differential check under the fuzzer:
// `go test -fuzz FuzzWheelVsHeap ./internal/sim` explores op strings,
// and the seed corpus keeps the key shapes in every plain `go test`.
func FuzzWheelVsHeap(f *testing.F) {
	f.Add([]byte{10, 240, 10, 170, 240}, uint64(1))
	f.Add([]byte{0, 0, 0, 230, 159, 159, 201, 240}, uint64(7))
	f.Add([]byte{155, 165, 155, 175, 155, 185, 240}, uint64(42))
	f.Add([]byte{9, 210, 9, 210, 9, 240}, uint64(0xC0FFEE))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint64) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		applyOps(t, ops, seed)
	})
}

// TestEventIs32Bytes pins the queued event's size: the wheel moves
// events by value on every push, cascade and pop, and a wider event
// (say, one carrying a payload word beside the handler) measurably
// slows every simulation. State an event needs belongs in its target.
func TestEventIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Fatalf("event is %d bytes, want 32 ({at, seq, handler})", n)
	}
}

// --- Halt semantics -------------------------------------------------

func TestHaltBeforeRunIsHonored(t *testing.T) {
	e := New()
	ran := false
	e.At(5, call(func() { ran = true }))
	e.Halt()
	if end := e.Run(); end != 0 {
		t.Fatalf("halted Run advanced the clock to %v", end)
	}
	if ran {
		t.Fatal("halted Run executed an event")
	}
	if e.Pending() != 1 {
		t.Fatalf("halted Run consumed the queue: Pending = %d", e.Pending())
	}
	// The halt is consumed: the next Run proceeds normally.
	if end := e.Run(); end != 5 || !ran {
		t.Fatalf("post-halt Run: end=%v ran=%v, want 5 true", end, ran)
	}
}

func TestHaltBeforeRunUntilIsHonored(t *testing.T) {
	e := New()
	ran := false
	e.At(5, call(func() { ran = true }))
	e.Halt()
	if end := e.RunUntil(100); end != 0 {
		t.Fatalf("halted RunUntil advanced the clock to %v", end)
	}
	if ran || e.Pending() != 1 {
		t.Fatalf("halted RunUntil executed work: ran=%v pending=%d", ran, e.Pending())
	}
	if end := e.RunUntil(100); end != 100 || !ran {
		t.Fatalf("post-halt RunUntil: end=%v ran=%v, want 100 true", end, ran)
	}
}

func TestHaltInsideCallbackStillStops(t *testing.T) {
	e := New()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, call(func() {
			count++
			if count == 3 {
				e.Halt()
			}
		}))
	}
	e.Run()
	if count != 3 || e.Pending() != 7 {
		t.Fatalf("in-callback halt: count=%d pending=%d, want 3/7", count, e.Pending())
	}
	// The halt was consumed by the halted Run: resuming drains the rest.
	e.Run()
	if count != 10 || e.Pending() != 0 {
		t.Fatalf("resume after halt: count=%d pending=%d, want 10/0", count, e.Pending())
	}
}

// --- Handler retention and the shrink policy ------------------------

// retainable is a finalizer-carrying event target; its collection
// proves the queue dropped every reference to it.
type retainable struct{ payload [1 << 16]byte }

func (*retainable) Fire(EventID) {}

// scheduleRetainable schedules n events targeting a fresh retainable,
// in its own function so the test frame holds no live reference
// afterwards.
func scheduleRetainable(e *Engine, n int, at Time, freed chan struct{}) {
	p := &retainable{}
	runtime.SetFinalizer(p, func(*retainable) { close(freed) })
	for i := 0; i < n; i++ {
		e.At(at+Time(i%3), p)
	}
}

func waitFreed(t *testing.T, freed chan struct{}, what string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatalf("%s: drained engine still retains a fired event target", what)
}

// TestDrainedEngineReleasesClosures is the regression test for the
// event-retention bug (first seen with closure events): popped events
// stayed reachable from the queue's backing storage until a later push
// happened to overwrite the slot, pinning their targets and everything
// those reference. A drained engine must hold no fired handler.
func TestDrainedEngineReleasesClosures(t *testing.T) {
	e := New()
	freed := make(chan struct{})
	scheduleRetainable(e, 64, 1000, freed)
	e.Run()
	waitFreed(t, freed, "run-drained engine")
	runtime.KeepAlive(e)
}

// TestCascadeReleasesClosures covers the cascade path: events parked
// in a coarse bucket are re-filed downward when the clock reaches
// their window, and the vacated bucket must not retain them either.
// Draining through RunUntil (peek-then-pop) also exercises nextTime's
// cascades directly.
func TestCascadeReleasesClosures(t *testing.T) {
	e := New()
	freed := make(chan struct{})
	// Far enough out to sit two levels up, forcing multiple cascades.
	scheduleRetainable(e, 64, 1<<20, freed)
	e.RunUntil(1 << 21)
	waitFreed(t, freed, "cascade-drained engine")
	runtime.KeepAlive(e)
}

// TestWheelShrinkPolicy checks that a one-off burst does not pin its
// high-water storage: a slot whose backing array grew past
// slotShrinkCap releases it once drained, while ordinary slots keep
// their (small) storage for reuse — on the slot at level 0, on the
// level's spare stack for the coarse buckets a cascade drains.
func TestWheelShrinkPolicy(t *testing.T) {
	e := New()
	const burst = slotShrinkCap * 2
	for i := 0; i < burst; i++ {
		e.At(100, call(func() {}))
		e.At(1<<20, call(func() {})) // two levels up: drains by cascading
	}
	e.At(7, call(func() {}))
	e.At(1<<21, call(func() {}))
	e.Run()
	if s := &e.wheel.levels[0].slots[100]; s.events != nil {
		t.Fatalf("burst slot kept cap %d after drain; want released", cap(s.events))
	}
	if s := &e.wheel.levels[0].slots[7]; s.events == nil || cap(s.events) == 0 {
		t.Fatal("ordinary slot dropped its storage; want it kept for reuse")
	}
	kept := 0
	for lvl := 1; lvl < wheelLevels; lvl++ {
		for _, buf := range e.wheel.levels[lvl].spare {
			if cap(buf) > slotShrinkCap {
				t.Fatalf("level %d spare stack kept burst storage of cap %d; want released", lvl, cap(buf))
			}
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("cascaded ordinary buckets dropped their storage; want it kept for reuse")
	}
}

// TestWheelSlotReuseAfterShrink makes sure a shrunk slot keeps
// working: the next rotation simply reallocates it.
func TestWheelSlotReuseAfterShrink(t *testing.T) {
	e := New()
	for round := 0; round < 3; round++ {
		at := e.Now() + 100
		fired := 0
		for i := 0; i < slotShrinkCap*2; i++ {
			e.At(at, call(func() { fired++ }))
		}
		e.Run()
		if fired != slotShrinkCap*2 {
			t.Fatalf("round %d fired %d events, want %d", round, fired, slotShrinkCap*2)
		}
	}
}
